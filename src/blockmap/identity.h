#ifndef CLOUDIQ_BLOCKMAP_IDENTITY_H_
#define CLOUDIQ_BLOCKMAP_IDENTITY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/physical_loc.h"
#include "store/system_store.h"

namespace cloudiq {

// Identity object (§3.1, Figure 2): the catalog entry that records where a
// storage object's *root blockmap page* lives, plus enough metadata to open
// the blockmap. When a root blockmap page is versioned (A -> A'), the new
// root location is recorded here. Identity objects live in the system
// dbspace — strong consistency — so unlike everything on cloud dbspaces
// they may be updated in place.
struct IdentityObject {
  uint64_t object_id = 0;   // owning table / index / segment
  uint32_t dbspace_id = 0;  // where the blockmap + data pages live
  PhysicalLoc root;         // root blockmap page
  uint64_t page_count = 0;
  uint64_t version = 0;     // commit sequence number that produced this

  // Serialize() is always exactly this many bytes; Deserialize() returns
  // Corruption for any other size.
  static constexpr size_t kSerializedSize = 36;
  std::vector<uint8_t> Serialize() const;
  static Result<IdentityObject> Deserialize(const std::vector<uint8_t>& bytes);
};

// The system catalog's identity table: object id -> current committed
// IdentityObject. Persisted as one blob in the system store; MVCC snapshots
// are cheap copies of the in-memory map (table-level versioning).
class IdentityCatalog {
 public:
  IdentityCatalog() = default;

  Result<IdentityObject> Get(uint64_t object_id) const;
  void Put(const IdentityObject& identity);
  void Remove(uint64_t object_id);
  bool Contains(uint64_t object_id) const {
    return identities_.count(object_id) > 0;
  }

  const std::map<uint64_t, IdentityObject>& identities() const {
    return identities_;
  }

  // Durable image in the system store under `name`.
  Status Persist(SystemStore* store, const std::string& name, SimTime now,
                 SimTime* completion) const;
  static Result<IdentityCatalog> Load(SystemStore* store,
                                      const std::string& name, SimTime now,
                                      SimTime* completion);

  std::vector<uint8_t> Serialize() const;
  // Corruption on a count the bytes cannot hold or a malformed entry.
  static Result<IdentityCatalog> Deserialize(
      const std::vector<uint8_t>& bytes);

 private:
  std::map<uint64_t, IdentityObject> identities_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_BLOCKMAP_IDENTITY_H_
