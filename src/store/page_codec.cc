#include "store/page_codec.h"

#include <cstring>

#include "common/coding.h"

namespace cloudiq {
namespace {

constexpr uint32_t kPageMagic = 0x49515047;  // "IQPG"
constexpr uint32_t kFlagRle = 1u << 0;
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;

}  // namespace

std::vector<uint8_t> RleCompress(const std::vector<uint8_t>& in) {
  // Byte-oriented RLE: a run of >= 4 equal bytes becomes
  // [0x00 marker][byte][u32 length]; literals are chunked as
  // [0x01 marker][u32 length][bytes...].
  std::vector<uint8_t> out;
  out.reserve(in.size() / 4 + 16);
  size_t i = 0;
  while (i < in.size()) {
    size_t run = 1;
    while (i + run < in.size() && in[i + run] == in[i] && run < 0xffffffff) {
      ++run;
    }
    if (run >= 4) {
      out.push_back(0x00);
      out.push_back(in[i]);
      uint32_t len = static_cast<uint32_t>(run);
      out.insert(out.end(), reinterpret_cast<uint8_t*>(&len),
                 reinterpret_cast<uint8_t*>(&len) + 4);
      i += run;
    } else {
      // Gather literals until the next long run.
      size_t lit_start = i;
      while (i < in.size()) {
        size_t r = 1;
        while (i + r < in.size() && in[i + r] == in[i] && r < 4) ++r;
        if (r >= 4 && i + 3 < in.size() && in[i + 3] == in[i]) break;
        i += 1;
      }
      uint32_t len = static_cast<uint32_t>(i - lit_start);
      out.push_back(0x01);
      out.insert(out.end(), reinterpret_cast<uint8_t*>(&len),
                 reinterpret_cast<uint8_t*>(&len) + 4);
      out.insert(out.end(), in.begin() + lit_start, in.begin() + i);
    }
  }
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

std::vector<uint8_t> EncodePage(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> compressed = RleCompress(payload);
  bool use_rle = compressed.size() < payload.size();
  const std::vector<uint8_t>& body = use_rle ? compressed : payload;

  std::vector<uint8_t> frame;
  frame.reserve(kHeaderSize + body.size());
  PutU32(frame, kPageMagic);
  PutU32(frame, use_rle ? kFlagRle : 0);
  PutU64(frame, payload.size());
  PutU64(frame, Checksum64(payload.data(), payload.size()));
  PutBytes(frame, body.data(), body.size());
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
