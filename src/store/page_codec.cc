#include "store/page_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/coding.h"

namespace cloudiq {
namespace {

constexpr uint32_t kPageMagic = 0x49515047;  // "IQPG"
constexpr uint32_t kFlagRle = 1u << 0;
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;

static_assert(std::endian::native == std::endian::little,
              "the RLE scanner reads little-endian words");

constexpr uint64_t kOnes = 0x0101010101010101ULL;
constexpr uint64_t kHigh = 0x8080808080808080ULL;
// Longest run one token holds (its length is a u32).
constexpr size_t kMaxRun = 0xffffffff;

uint64_t LoadWord(const uint8_t* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, 8);
  return w;
}

// The lowest byte of `x` that is zero has 0x80 set here; bytes above it
// may be flagged falsely (a borrow), so only the lowest flag is exact.
uint64_t LowestZeroByte(uint64_t x) { return (x - kOnes) & ~x & kHigh; }

// The first j >= i where in[j..j+4) are four equal bytes, or n. One pass
// of the loop tests eight starting positions: with w_d the word at j + d,
// byte k of (w0 ^ w1) | (w1 ^ w2) | (w2 ^ w3) is zero exactly when
// in[j+k..j+k+4) are equal. The last positions go byte by byte, so no
// load reads past in[n - 1].
size_t FindQuad(const uint8_t* in, size_t i, size_t n) {
  size_t j = i;
  for (; j + 11 <= n; j += 8) {
    uint64_t w0 = LoadWord(in + j);
    uint64_t w1 = LoadWord(in + j + 1);
    uint64_t w2 = LoadWord(in + j + 2);
    uint64_t w3 = LoadWord(in + j + 3);
    uint64_t quad = LowestZeroByte((w0 ^ w1) | (w1 ^ w2) | (w2 ^ w3));
    if (quad != 0) return j + std::countr_zero(quad) / 8;
  }
  for (; j + 3 < n; ++j) {
    if (in[j] == in[j + 1] && in[j] == in[j + 2] && in[j] == in[j + 3]) {
      return j;
    }
  }
  return n;
}

// The end of the run of in[i]: the first k > i with in[k] != in[i], or n.
size_t RunEnd(const uint8_t* in, size_t i, size_t n) {
  const uint8_t b = in[i];
  const uint64_t pattern = b * kOnes;
  size_t k = i + 1;
  for (; k + 8 <= n; k += 8) {
    uint64_t diff = LoadWord(in + k) ^ pattern;
    if (diff != 0) return k + std::countr_zero(diff) / 8;
  }
  while (k < n && in[k] == b) ++k;
  return k;
}

// The one RLE tokenizer. A run of >= 4 equal bytes becomes the token
// [0x00 marker][byte][u32 length], longer runs splitting at kMaxRun;
// everything between runs is chunked as [0x01 marker][u32 length]
// [bytes...]. Calls sink.Run(byte, len) and sink.Literal(bytes, len) in
// stream order.
template <typename Sink>
void RleTokens(const std::vector<uint8_t>& payload, Sink& sink) {
  const uint8_t* in = payload.data();
  const size_t n = payload.size();
  size_t i = 0;
  while (i < n) {
    size_t quad = FindQuad(in, i, n);
    if (quad > i) {
      sink.Literal(in + i, quad - i);
      i = quad;
      if (i == n) break;
    }
    size_t len = std::min(RunEnd(in, i, n) - i, kMaxRun);
    sink.Run(in[i], len);
    i += len;
  }
}

// Counts the bytes the tokens take.
struct RleSizer {
  uint64_t size = 0;
  void Run(uint8_t, size_t) { size += 6; }
  void Literal(const uint8_t*, size_t len) { size += 5 + len; }
};

// Writes the tokens at `dst`, which has room for them (RleSizer's count).
struct RleWriter {
  uint8_t* dst;
  void Run(uint8_t b, size_t len) {
    uint32_t n = static_cast<uint32_t>(len);
    dst[0] = 0x00;
    dst[1] = b;
    std::memcpy(dst + 2, &n, 4);
    dst += 6;
  }
  void Literal(const uint8_t* bytes, size_t len) {
    uint32_t n = static_cast<uint32_t>(len);
    dst[0] = 0x01;
    std::memcpy(dst + 1, &n, 4);
    std::memcpy(dst + 5, bytes, len);
    dst += 5 + len;
  }
};

uint64_t RleSize(const std::vector<uint8_t>& payload) {
  RleSizer sizer;
  RleTokens(payload, sizer);
  return sizer.size;
}

// Appends the tokens of `payload`, `rle_size` bytes, to `out`.
void AppendRle(const std::vector<uint8_t>& payload, uint64_t rle_size,
               std::vector<uint8_t>& out) {
  size_t offset = out.size();
  out.resize(offset + rle_size);
  RleWriter writer{out.data() + offset};
  RleTokens(payload, writer);
}

}  // namespace

std::vector<uint8_t> RleCompress(const std::vector<uint8_t>& in) {
  std::vector<uint8_t> out;
  AppendRle(in, RleSize(in), out);
  return out;
}

namespace {

// Walks the RLE token stream, calling on_run(byte, len) for each run and
// on_literal(bytes, len) for each literal chunk; stops at the first
// malformed token.
template <typename OnRun, typename OnLiteral>
Status ForEachRleToken(const std::vector<uint8_t>& in, OnRun on_run,
                       OnLiteral on_literal) {
  size_t i = 0;
  while (i < in.size()) {
    uint8_t marker = in[i++];
    uint32_t len = 0;
    if (marker == 0x00) {
      if (i + 5 > in.size()) return Status::Corruption("truncated RLE run");
      uint8_t value = in[i++];
      std::memcpy(&len, in.data() + i, 4);
      i += 4;
      on_run(value, len);
    } else if (marker == 0x01) {
      if (i + 4 > in.size()) return Status::Corruption("truncated literal");
      std::memcpy(&len, in.data() + i, 4);
      i += 4;
      if (len > in.size() - i) return Status::Corruption("literal overrun");
      on_literal(in.data() + i, len);
      i += len;
    } else {
      return Status::Corruption("bad RLE marker");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<uint8_t>> RleDecompress(const std::vector<uint8_t>& in,
                                           uint64_t expected_size) {
  // Size the output from the tokens before allocating it, so a corrupt
  // run length or expected size cannot drive a huge allocation.
  uint64_t total = 0;
  CLOUDIQ_RETURN_IF_ERROR(ForEachRleToken(
      in, [&](uint8_t, uint32_t len) { total += len; },
      [&](const uint8_t*, uint32_t len) { total += len; }));
  if (total != expected_size) {
    return Status::Corruption("RLE size mismatch");
  }
  std::vector<uint8_t> out;
  out.reserve(total);
  CLOUDIQ_RETURN_IF_ERROR(ForEachRleToken(
      in,
      [&](uint8_t value, uint32_t len) { out.insert(out.end(), len, value); },
      [&](const uint8_t* bytes, uint32_t len) {
        out.insert(out.end(), bytes, bytes + len);
      }));
  return out;
}

size_t EncodedPageSize(const std::vector<uint8_t>& payload) {
  return kHeaderSize + std::min<uint64_t>(RleSize(payload), payload.size());
}

std::vector<uint8_t> EncodePage(const std::vector<uint8_t>& payload) {
  uint64_t rle_size = RleSize(payload);
  bool use_rle = rle_size < payload.size();

  std::vector<uint8_t> frame;
  frame.reserve(kHeaderSize + (use_rle ? rle_size : payload.size()));
  PutU32(frame, kPageMagic);
  PutU32(frame, use_rle ? kFlagRle : 0);
  PutU64(frame, payload.size());
  PutU64(frame, Checksum64(payload.data(), payload.size()));
  if (use_rle) {
    AppendRle(payload, rle_size, frame);
  } else {
    PutBytes(frame, payload.data(), payload.size());
  }
  return frame;
}

Result<std::vector<uint8_t>> DecodePage(const std::vector<uint8_t>& frame) {
  if (frame.size() < kHeaderSize) {
    return Status::Corruption("page frame too small");
  }
  ByteReader reader(frame);
  if (reader.GetU32() != kPageMagic) {
    return Status::Corruption("bad page magic");
  }
  uint32_t flags = reader.GetU32();
  uint64_t raw_size = reader.GetU64();
  uint64_t checksum = reader.GetU64();

  std::vector<uint8_t> body(frame.begin() + kHeaderSize, frame.end());
  std::vector<uint8_t> payload;
  if (flags & kFlagRle) {
    CLOUDIQ_ASSIGN_OR_RETURN(payload, RleDecompress(body, raw_size));
  } else {
    payload = std::move(body);
    if (payload.size() != raw_size) {
      return Status::Corruption("raw page size mismatch");
    }
  }
  if (Checksum64(payload.data(), payload.size()) != checksum) {
    return Status::Corruption("page checksum mismatch");
  }
  return payload;
}

}  // namespace cloudiq
