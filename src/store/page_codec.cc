#include "store/page_codec.h"

#include "common/coding.h"
#include "common/key_hash.h"

namespace cloudiq {
namespace {

constexpr uint32_t kPageMagic = 0x49515047;  // "IQPG"
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;

}  // namespace

size_t EncodedPageSize(const std::vector<uint8_t>& payload) {
  return kHeaderSize + payload.size();
}

std::vector<uint8_t> EncodePage(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(EncodedPageSize(payload));
  PutU32(frame, kPageMagic);
  PutU32(frame, 0);  // flags
  PutU64(frame, payload.size());
  PutU64(frame, HashBytes(payload.data(), payload.size()));
  PutBytes(frame, payload.data(), payload.size());
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
  if (reader.GetU32() != 0) {
    return Status::Corruption("unknown page flags");
  }
  uint64_t raw_size = reader.GetU64();
  uint64_t checksum = reader.GetU64();
  if (raw_size != frame.size() - kHeaderSize) {
    return Status::Corruption("page size mismatch");
  }
  if (HashBytes(frame.data() + kHeaderSize, raw_size) != checksum) {
    return Status::Corruption("page checksum mismatch");
  }
  return std::vector<uint8_t>(frame.begin() + kHeaderSize, frame.end());
}

}  // namespace cloudiq
