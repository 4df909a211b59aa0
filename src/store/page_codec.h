#ifndef CLOUDIQ_STORE_PAGE_CODEC_H_
#define CLOUDIQ_STORE_PAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace cloudiq {

// Page framing and integrity only. The codec wraps a page payload as:
//   [magic u32][flags u32][raw_size u64][checksum u64][payload...]
// with flags always 0 and checksum = HashBytes(payload) (common/
// key_hash.h), a word-at-a-time hash over every payload byte: a change
// confined to one aligned 8-byte word of the payload always changes it. Column payloads are already dictionary/n-bit
// encoded upstream (columnar/encoding.h), which is where the bytes are
// saved. The paper's page-level compression (§1) is not implemented; a
// compressor would claim a flags bit of its own.

// Encodes `payload`; the result is self-describing.
std::vector<uint8_t> EncodePage(const std::vector<uint8_t>& payload);

// EncodePage(payload).size(): the header plus the payload.
size_t EncodedPageSize(const std::vector<uint8_t>& payload);

// Decodes a frame produced by EncodePage, verifying magic, flags, size
// and checksum; anything else is Corruption.
Result<std::vector<uint8_t>> DecodePage(const std::vector<uint8_t>& frame);

}  // namespace cloudiq

#endif  // CLOUDIQ_STORE_PAGE_CODEC_H_
