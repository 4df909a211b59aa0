#ifndef CLOUDIQ_NDP_NDP_ENGINE_H_
#define CLOUDIQ_NDP_NDP_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "ndp/ndp_protocol.h"
#include "sim/object_store.h"

namespace cloudiq {
namespace ndp {

// The server-side NDP evaluator (the compute half of the Taurus-style
// "storage does the scan" split). Stateless and page-native: it sees
// only encoded column pages handed to it by SimObjectStore::Select —
// never the OCM, the buffer pool or transactions, which is exactly the
// layering a real storage-side pushdown has (and what the
// cloudiq-ndp-layering lint rule enforces).
//
// Pages arrive as stored frames (EncodePage over EncodeColumnPage
// output); each is opened, parsed and checked against its ref, then the
// pull path's own page-scan pipeline (ScanPages, columnar/range_scan.h)
// checks every page whole and writes the survivors into the result,
// whose coded columns expand to plain strings for the wire. A corrupt
// page is Corruption; a page whose type or row count disagrees with its
// ref, or a range column that is not an int-family request column, is
// InvalidArgument. An undecodable frame — e.g. a page written with
// storage.encrypt_pages on, which the server has no key for — fails the
// request; the planner never pushes such a table
// (TableReader::PushdownEligible), and a failure at run time is the
// scan's error.
class NdpEngine : public NdpServerEngine {
 public:
  NdpEngine() = default;

  Result<std::vector<std::string>> KeysOf(
      const std::vector<uint8_t>& request) const override;

  Result<std::vector<uint8_t>> Execute(
      const std::vector<uint8_t>& request,
      const std::vector<const std::vector<uint8_t>*>& pages) const override;

  // The evaluator proper, over a request as NdpRequest::Deserialize
  // returns it (page refs ascending, no overlap) and its frames in KeysOf
  // order (exposed for unit tests; Execute wraps it with the wire
  // formats).
  static Result<NdpResult> Evaluate(
      const NdpRequest& request,
      const std::vector<const std::vector<uint8_t>*>& pages);
};

}  // namespace ndp
}  // namespace cloudiq

#endif  // CLOUDIQ_NDP_NDP_ENGINE_H_
