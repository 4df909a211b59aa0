#ifndef CLOUDIQ_TPCH_TPCH_LOADER_H_
#define CLOUDIQ_TPCH_TPCH_LOADER_H_

#include "common/result.h"
#include "engine/database.h"
#include "tpch/tpch_gen.h"

namespace cloudiq {

struct TpchLoadOptions {
  size_t partitions = 8;
};

struct TpchLoadResult {
  double seconds = 0;         // simulated wall time for the full load
  uint64_t rows = 0;
  uint64_t input_bytes = 0;   // raw input-file bytes streamed from S3
  uint64_t bytes_at_rest = 0; // compressed user-dbspace footprint
};

// Loads all eight TPC-H tables into `db` (one transaction per table, as a
// bulk load would): streams the input files from the simulated S3 input
// bucket, parses/encodes them with the load engine (CPU drains onto the
// node's clock at its vCPU parallelism), flushes pages through the
// write-back path, and commits write-through.
Result<TpchLoadResult> LoadTpch(Database* db, TpchGenerator* gen,
                                TpchLoadOptions options = {});

// Loads a single table (used by tests and the scale-out setup).
Result<TableMeta> LoadTpchTable(Database* db, TpchGenerator* gen,
                                TpchTable table, TpchLoadOptions options);

}  // namespace cloudiq

#endif  // CLOUDIQ_TPCH_TPCH_LOADER_H_
