#ifndef CLOUDIQ_COMMON_CODING_H_
#define CLOUDIQ_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace cloudiq {

// Little-endian fixed-width encoding helpers used by every on-"disk"
// structure (pages, blockmap nodes, transaction-log records, snapshot
// metadata). Keeping one scheme repo-wide makes serialized artifacts
// comparable across modules and in tests.

inline void PutU64(std::vector<uint8_t>& dst, uint64_t v) {
  size_t off = dst.size();
  dst.resize(off + sizeof(v));
  std::memcpy(dst.data() + off, &v, sizeof(v));
}

inline void PutU32(std::vector<uint8_t>& dst, uint32_t v) {
  size_t off = dst.size();
  dst.resize(off + sizeof(v));
  std::memcpy(dst.data() + off, &v, sizeof(v));
}

inline void PutI64(std::vector<uint8_t>& dst, int64_t v) {
  PutU64(dst, static_cast<uint64_t>(v));
}

inline void PutDouble(std::vector<uint8_t>& dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(dst, bits);
}

inline void PutBytes(std::vector<uint8_t>& dst, const uint8_t* src,
                     size_t n) {
  dst.insert(dst.end(), src, src + n);
}

inline void PutString(std::vector<uint8_t>& dst, const std::string& s) {
  PutU32(dst, static_cast<uint32_t>(s.size()));
  PutBytes(dst, reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

// Sequential reader over an encoded buffer. Out-of-bounds reads return
// zero values and latch `overflow()`; callers validating untrusted bytes
// check it once at the end.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  uint64_t GetU64() {
    uint64_t v = 0;
    Read(&v, sizeof(v));
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    Read(&v, sizeof(v));
    return v;
  }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetDouble() {
    uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  uint8_t GetU8() {
    uint8_t v = 0;
    Read(&v, sizeof(v));
    return v;
  }
  std::vector<uint8_t> GetBytes(size_t n) {
    if (n > size_ - pos_) {
      overflow_ = true;
      return {};
    }
    std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  // Advances past `n` bytes without copying them and returns where they
  // start, or nullptr (latching overflow) when fewer than `n` remain.
  const uint8_t* Skip(size_t n) {
    if (n > size_ - pos_) {
      overflow_ = true;
      return nullptr;
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::string GetString() {
    uint32_t n = GetU32();
    if (pos_ + n > size_) {
      overflow_ = true;
      return std::string();
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  size_t remaining() const { return size_ - pos_; }
  bool overflow() const { return overflow_; }

 private:
  void Read(void* dst, size_t n) {
    if (pos_ + n > size_) {
      overflow_ = true;
      return;
    }
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool overflow_ = false;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COMMON_CODING_H_
