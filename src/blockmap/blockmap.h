#ifndef CLOUDIQ_BLOCKMAP_BLOCKMAP_H_
#define CLOUDIQ_BLOCKMAP_BLOCKMAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/result.h"
#include "common/status.h"
#include "store/cloud_cache.h"
#include "store/physical_loc.h"
#include "store/storage.h"

namespace cloudiq {

// The blockmap: SAP IQ's mapping from logical database pages to their
// physical representation — block runs on conventional dbspaces, object
// keys on cloud dbspaces (§2, §3.1). Blockmap pages are organized as a
// fixed-fanout tree whose nodes are themselves pages stored through the
// StorageSubsystem.
//
// Versioning follows Figure 2 of the paper exactly: updating data page H
// to H' dirties its owning leaf D; flushing D yields D' under a *new*
// location (never-write-twice on cloud dbspaces), which dirties D's
// parent, and so on to the root A'; the new root location is recorded in
// the identity object. Flush() reports every replaced node location (for
// the transaction's RF bitmap) and every new one (RB bitmap).
//
// A Blockmap instance is a single transaction's working copy; concurrent
// readers open their own instances from the committed root (table-level
// versioning, §2).
class Blockmap {
 public:
  // Locations freed/allocated by a flush, for RF/RB bookkeeping. When
  // produced by PrepareFlush, `ops`/`statuses` carry the prepared node
  // writes for the caller to execute (in parallel, possibly batched with
  // other blockmaps' writes); Flush() runs them itself.
  struct FlushEffects {
    std::vector<PhysicalLoc> freed;      // old versions of rewritten nodes
    std::vector<PhysicalLoc> allocated;  // new node locations
    PhysicalLoc new_root;
    uint64_t nodes_written = 0;
    std::vector<IoScheduler::Op> ops;
    std::vector<std::shared_ptr<Status>> statuses;
  };

  // Creates an empty blockmap (no pages yet) over `space`. When
  // `page_cache` is given, node reads go through the RAM buffer cache —
  // blockmap pages are cached exactly like data pages in SAP IQ.
  Blockmap(StorageSubsystem* storage, DbSpace* space, uint32_t fanout,
           BufferManager* page_cache = nullptr);

  // Opens the committed tree rooted at `root` containing `page_count`
  // logical pages. Nodes are faulted in lazily on lookup.
  static Blockmap Open(StorageSubsystem* storage, DbSpace* space,
                       uint32_t fanout, PhysicalLoc root,
                       uint64_t page_count,
                       BufferManager* page_cache = nullptr);

  // Number of logical pages mapped.
  uint64_t page_count() const { return page_count_; }

  // Physical location of `logical_page`. Faults in blockmap nodes from
  // storage as needed (this is real I/O on the simulated clock).
  Result<PhysicalLoc> Lookup(uint64_t logical_page);

  // Points `logical_page` at `loc`; returns the previous location (invalid
  // if the page had never been flushed). Dirties the leaf-to-root path.
  Result<PhysicalLoc> Update(uint64_t logical_page, PhysicalLoc loc);

  // Appends a new logical page mapped to `loc` (typically invalid until
  // first flush); returns its logical page number. Grows the tree height
  // as needed.
  uint64_t Append(PhysicalLoc loc);

  // Writes all dirty nodes bottom-up using copy-on-write, returning the
  // new root location and the freed/allocated node sets. `mode`/`txn_id`
  // flow through to the OCM.
  Result<FlushEffects> Flush(CloudCache::WriteMode mode, uint64_t txn_id);

  // Like Flush, but only *prepares* the node writes: every node gets its
  // new location assigned (fresh object key / block run) and serialized
  // with its children's new locations, so the returned ops can run in any
  // order and in parallel — including batched with other objects' flushes
  // at commit. The caller must execute `ops` and check `statuses`.
  Result<FlushEffects> PrepareFlush(CloudCache::WriteMode mode,
                                    uint64_t txn_id);

  // True if any node is dirty (Flush would write something).
  bool dirty() const;

  PhysicalLoc root_loc() const { return root_loc_; }
  uint32_t fanout() const { return fanout_; }
  uint32_t height() const { return height_; }

  // Collects the locations of every node and every data page reachable
  // from the current (flushed) tree — the "reachable set" used by GC
  // completeness tests and by snapshot restore.
  Status CollectReachable(std::vector<PhysicalLoc>* nodes,
                          std::vector<PhysicalLoc>* data_pages);

  // One tree node, in memory.
  struct Node {
    PhysicalLoc stored_loc;  // invalid if never persisted
    bool dirty = false;
    bool leaf = true;
    // Leaf: data-page locations. Internal: child locations (children[i]
    // is authoritative when non-null, else entries[i]).
    std::vector<uint64_t> entries;  // encoded PhysicalLoc
    std::vector<std::unique_ptr<Node>> children;
  };

  // Decodes a node page read from `loc`: [leaf u32][count u32][count x
  // u64]. Corruption when the page holds fewer than `count` entries, so a
  // corrupt count never sizes an allocation.
  static Result<std::unique_ptr<Node>> ParseNode(
      const std::vector<uint8_t>& bytes, PhysicalLoc loc);

 private:
  // Reads a node page, via the buffer cache when configured.
  Result<std::vector<uint8_t>> ReadNodeBytes(PhysicalLoc loc);
  Result<Node*> FaultIn(Node* parent, size_t slot);
  Result<Node*> DescendToLeaf(uint64_t logical_page, bool mark_dirty,
                              uint64_t* leaf_slot);
  Status FlushNode(Node* node, CloudCache::WriteMode mode, uint64_t txn_id,
                   FlushEffects* effects);
  Status CollectNode(Node* node, std::vector<PhysicalLoc>* nodes,
                     std::vector<PhysicalLoc>* data_pages);
  Result<Node*> LoadNode(PhysicalLoc loc, bool leaf);
  // Capacity of a subtree of the given height (height 1 = leaf).
  uint64_t SubtreeCapacity(uint32_t height) const;

  StorageSubsystem* storage_;
  DbSpace* space_;
  BufferManager* page_cache_;
  uint32_t fanout_;
  uint32_t height_ = 1;  // levels, including the leaf level
  uint64_t page_count_ = 0;
  PhysicalLoc root_loc_;
  std::unique_ptr<Node> root_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_BLOCKMAP_BLOCKMAP_H_
