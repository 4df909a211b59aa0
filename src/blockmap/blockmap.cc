#include "blockmap/blockmap.h"

#include <cassert>

#include "common/coding.h"

namespace cloudiq {
namespace {

constexpr uint64_t kInvalidEncoded = ~uint64_t{0};

std::vector<uint8_t> SerializeNode(bool leaf,
                                   const std::vector<uint64_t>& entries) {
  std::vector<uint8_t> bytes;
  PutU32(bytes, leaf ? 1 : 0);
  PutU32(bytes, static_cast<uint32_t>(entries.size()));
  for (uint64_t e : entries) PutU64(bytes, e);
  return bytes;
}

}  // namespace

Blockmap::Blockmap(StorageSubsystem* storage, DbSpace* space,
                   uint32_t fanout, BufferManager* page_cache)
    : storage_(storage),
      space_(space),
      page_cache_(page_cache),
      fanout_(fanout) {
  assert(fanout_ >= 2);
  root_ = std::make_unique<Node>();
  root_->leaf = true;
}

Blockmap Blockmap::Open(StorageSubsystem* storage, DbSpace* space,
                        uint32_t fanout, PhysicalLoc root,
                        uint64_t page_count, BufferManager* page_cache) {
  Blockmap map(storage, space, fanout, page_cache);
  map.root_.reset();
  map.root_loc_ = root;
  map.page_count_ = page_count;
  map.height_ = 1;
  while (map.SubtreeCapacity(map.height_) < page_count) ++map.height_;
  return map;
}

uint64_t Blockmap::SubtreeCapacity(uint32_t height) const {
  uint64_t cap = 1;
  for (uint32_t i = 0; i < height; ++i) cap *= fanout_;
  return cap;
}

Result<std::vector<uint8_t>> Blockmap::ReadNodeBytes(PhysicalLoc loc) {
  if (page_cache_ != nullptr) {
    // Blockmap pages live in the RAM buffer cache like any other page;
    // repeated tree descents across queries hit RAM, not the device.
    StorageSubsystem* storage = storage_;
    DbSpace* space = space_;
    CLOUDIQ_ASSIGN_OR_RETURN(
        BufferManager::PageData data,
        page_cache_->Get(space_->id, loc, [storage, space, loc]() {
          return storage->ReadPage(space, loc);
        }));
    return *data;
  }
  return storage_->ReadPage(space_, loc);
}

Result<std::unique_ptr<Blockmap::Node>> Blockmap::ParseNode(
    const std::vector<uint8_t>& bytes, PhysicalLoc loc) {
  ByteReader reader(bytes);
  auto node = std::make_unique<Node>();
  node->leaf = reader.GetU32() != 0;
  node->stored_loc = loc;
  uint32_t count = reader.GetU32();
  // Bound the count by the bytes present before reserving for it.
  if (reader.overflow() || uint64_t{count} * 8 > reader.remaining()) {
    return Status::Corruption("blockmap node bytes");
  }
  node->entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) node->entries.push_back(reader.GetU64());
  if (!node->leaf) node->children.resize(node->entries.size());
  return node;
}

// Reads and parses a blockmap node page. The serialized form is
// self-describing (leaf flag + entry count), so the caller can sanity-check
// the level against its expectation.
Result<Blockmap::Node*> Blockmap::LoadNode(PhysicalLoc loc,
                                           bool expect_leaf) {
  CLOUDIQ_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadNodeBytes(loc));
  CLOUDIQ_ASSIGN_OR_RETURN(std::unique_ptr<Node> node, ParseNode(bytes, loc));
  if (node->leaf != expect_leaf) {
    return Status::Corruption("blockmap node level mismatch");
  }
  return node.release();
}

Result<Blockmap::Node*> Blockmap::FaultIn(Node* parent, size_t slot) {
  assert(!parent->leaf);
  if (parent->children[slot] != nullptr) return parent->children[slot].get();
  uint64_t encoded = parent->entries[slot];
  if (encoded == kInvalidEncoded) {
    return Status::Corruption("dangling blockmap child");
  }
  PhysicalLoc loc = PhysicalLoc::FromEncoded(encoded);
  CLOUDIQ_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadNodeBytes(loc));
  CLOUDIQ_ASSIGN_OR_RETURN(parent->children[slot], ParseNode(bytes, loc));
  return parent->children[slot].get();
}

Result<Blockmap::Node*> Blockmap::DescendToLeaf(uint64_t logical_page,
                                                bool mark_dirty,
                                                uint64_t* leaf_slot) {
  if (logical_page >= page_count_) {
    return Status::InvalidArgument("logical page out of range");
  }
  if (root_ == nullptr) {
    CLOUDIQ_ASSIGN_OR_RETURN(Node * loaded,
                             LoadNode(root_loc_, height_ == 1));
    root_.reset(loaded);
  }
  Node* node = root_.get();
  uint64_t rel = logical_page;
  uint32_t level = height_;
  if (mark_dirty) node->dirty = true;
  while (!node->leaf) {
    uint64_t child_cap = SubtreeCapacity(level - 1);
    size_t slot = static_cast<size_t>(rel / child_cap);
    rel %= child_cap;
    CLOUDIQ_ASSIGN_OR_RETURN(Node * child, FaultIn(node, slot));
    node = child;
    if (mark_dirty) node->dirty = true;
    --level;
  }
  *leaf_slot = rel;
  return node;
}

Result<PhysicalLoc> Blockmap::Lookup(uint64_t logical_page) {
  uint64_t slot = 0;
  CLOUDIQ_ASSIGN_OR_RETURN(Node * leaf,
                           DescendToLeaf(logical_page, false, &slot));
  if (slot >= leaf->entries.size()) {
    return Status::Corruption("blockmap leaf underfilled");
  }
  return PhysicalLoc::FromEncoded(leaf->entries[slot]);
}

Result<PhysicalLoc> Blockmap::Update(uint64_t logical_page,
                                     PhysicalLoc loc) {
  uint64_t slot = 0;
  CLOUDIQ_ASSIGN_OR_RETURN(Node * leaf,
                           DescendToLeaf(logical_page, true, &slot));
  if (slot >= leaf->entries.size()) {
    return Status::Corruption("blockmap leaf underfilled");
  }
  PhysicalLoc old = PhysicalLoc::FromEncoded(leaf->entries[slot]);
  leaf->entries[slot] = loc.encoded();
  return old;
}

uint64_t Blockmap::Append(PhysicalLoc loc) {
  // Grow the tree if full: the old root becomes child 0 of a new root
  // (height grows; the new root is dirty by construction).
  if (root_ == nullptr) {
    // Fault in lazily before structural changes.
    uint64_t ignored;
    if (page_count_ > 0) {
      Result<Node*> r = DescendToLeaf(0, false, &ignored);
      assert(r.ok() && "cannot fault in blockmap root for append");
      (void)r;
    } else {
      root_ = std::make_unique<Node>();
      root_->leaf = true;
    }
  }
  if (page_count_ == SubtreeCapacity(height_) && page_count_ > 0) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->entries.push_back(root_->stored_loc.encoded());
    new_root->children.resize(1);
    new_root->children[0] = std::move(root_);
    new_root->dirty = true;
    root_ = std::move(new_root);
    ++height_;
  }

  // Descend to the append position, creating nodes along the right edge.
  uint64_t page = page_count_;
  Node* node = root_.get();
  node->dirty = true;
  uint64_t rel = page;
  uint32_t level = height_;
  while (!node->leaf) {
    uint64_t child_cap = SubtreeCapacity(level - 1);
    size_t slot = static_cast<size_t>(rel / child_cap);
    rel %= child_cap;
    if (slot == node->entries.size()) {
      node->entries.push_back(kInvalidEncoded);
      node->children.emplace_back();
    }
    if (node->children[slot] == nullptr &&
        node->entries[slot] == kInvalidEncoded) {
      auto child = std::make_unique<Node>();
      child->leaf = (level - 1) == 1;
      child->dirty = true;
      node->children[slot] = std::move(child);
    } else if (node->children[slot] == nullptr) {
      Result<Node*> r = FaultIn(node, slot);
      assert(r.ok() && "blockmap fault-in during append failed");
      (void)r;
    }
    node = node->children[slot].get();
    node->dirty = true;
    --level;
  }
  node->entries.push_back(loc.encoded());
  return page_count_++;
}

Status Blockmap::FlushNode(Node* node, CloudCache::WriteMode mode,
                           uint64_t txn_id, FlushEffects* effects) {
  if (!node->dirty) return Status::Ok();
  if (!node->leaf) {
    for (size_t i = 0; i < node->children.size(); ++i) {
      Node* child = node->children[i].get();
      if (child != nullptr && child->dirty) {
        CLOUDIQ_RETURN_IF_ERROR(FlushNode(child, mode, txn_id, effects));
        node->entries[i] = child->stored_loc.encoded();
      }
    }
  }
  // Copy-on-write: the node's previous incarnation is superseded, not
  // overwritten. On a cloud dbspace the write below takes a brand-new
  // object key (never-write-twice); on a conventional dbspace it takes a
  // fresh block run. The location is assigned at prepare time, which is
  // what lets a parent serialize its children's new locations before any
  // I/O has run — and therefore lets all node writes go out in parallel.
  if (node->stored_loc.valid()) effects->freed.push_back(node->stored_loc);
  CLOUDIQ_ASSIGN_OR_RETURN(
      StorageSubsystem::PreparedWrite prepared,
      storage_->PrepareWrite(space_,
                             SerializeNode(node->leaf, node->entries),
                             mode, txn_id));
  node->stored_loc = prepared.loc;
  node->dirty = false;
  effects->allocated.push_back(prepared.loc);
  effects->ops.push_back(std::move(prepared.op));
  effects->statuses.push_back(prepared.status);
  ++effects->nodes_written;
  return Status::Ok();
}

Result<Blockmap::FlushEffects> Blockmap::PrepareFlush(
    CloudCache::WriteMode mode, uint64_t txn_id) {
  FlushEffects effects;
  if (root_ == nullptr || !root_->dirty) {
    effects.new_root = root_loc_;
    return effects;
  }
  CLOUDIQ_RETURN_IF_ERROR(FlushNode(root_.get(), mode, txn_id, &effects));
  root_loc_ = root_->stored_loc;
  effects.new_root = root_loc_;
  return effects;
}

Result<Blockmap::FlushEffects> Blockmap::Flush(CloudCache::WriteMode mode,
                                               uint64_t txn_id) {
  CLOUDIQ_ASSIGN_OR_RETURN(FlushEffects effects,
                           PrepareFlush(mode, txn_id));
  NodeContext* node = storage_->node();
  node->io().RunParallel(effects.ops, node->IoWidth());
  for (const auto& status : effects.statuses) {
    if (!status->ok()) return *status;
  }
  effects.ops.clear();
  effects.statuses.clear();
  return effects;
}

bool Blockmap::dirty() const { return root_ != nullptr && root_->dirty; }

Status Blockmap::CollectNode(Node* node, std::vector<PhysicalLoc>* nodes,
                             std::vector<PhysicalLoc>* data_pages) {
  if (node->stored_loc.valid()) nodes->push_back(node->stored_loc);
  if (node->leaf) {
    for (uint64_t e : node->entries) {
      if (e != kInvalidEncoded) {
        data_pages->push_back(PhysicalLoc::FromEncoded(e));
      }
    }
    return Status::Ok();
  }
  for (size_t i = 0; i < node->entries.size(); ++i) {
    CLOUDIQ_ASSIGN_OR_RETURN(Node * child, FaultIn(node, i));
    CLOUDIQ_RETURN_IF_ERROR(CollectNode(child, nodes, data_pages));
  }
  return Status::Ok();
}

Status Blockmap::CollectReachable(std::vector<PhysicalLoc>* nodes,
                                  std::vector<PhysicalLoc>* data_pages) {
  if (page_count_ == 0) return Status::Ok();
  uint64_t ignored;
  CLOUDIQ_ASSIGN_OR_RETURN(Node * leaf, DescendToLeaf(0, false, &ignored));
  (void)leaf;
  return CollectNode(root_.get(), nodes, data_pages);
}

}  // namespace cloudiq
