#ifndef CLOUDIQ_STORE_PAGE_CODEC_H_
#define CLOUDIQ_STORE_PAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace cloudiq {

// Page-level compression and integrity framing (§1: "SAP IQ employs
// page-level compression to further reduce the amount of I/O").
//
// The codec wraps a page payload as:
//   [magic u32][flags u32][raw_size u64][checksum u64][body...]
// where body is either the raw payload or an RLE-compressed form,
// whichever is smaller. Column payloads are already dictionary/n-bit
// encoded upstream, so the page codec mainly squeezes zero padding and
// repetitive runs — which is also where most of the paper's 512 KB pages
// win their 1–16-block variability.

// Encodes `payload`; the result is self-describing.
std::vector<uint8_t> EncodePage(const std::vector<uint8_t>& payload);

// EncodePage(payload).size(), computed without building the frame.
size_t EncodedPageSize(const std::vector<uint8_t>& payload);

// Decodes a frame produced by EncodePage, verifying magic and checksum.
Result<std::vector<uint8_t>> DecodePage(const std::vector<uint8_t>& frame);

// Raw RLE primitives (exposed for tests).
std::vector<uint8_t> RleCompress(const std::vector<uint8_t>& in);
Result<std::vector<uint8_t>> RleDecompress(const std::vector<uint8_t>& in,
                                           uint64_t expected_size);

}  // namespace cloudiq

#endif  // CLOUDIQ_STORE_PAGE_CODEC_H_
