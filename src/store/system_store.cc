#include "store/system_store.h"

#include "common/coding.h"

namespace cloudiq {

SystemStore::SystemStore(SimBlockVolume* volume) : volume_(volume) {}

Status SystemStore::Open(SimTime now, SimTime* completion) {
  return RefreshDirectory(now, completion);
}

Status SystemStore::RefreshDirectory(SimTime now, SimTime* completion) {
  directory_.clear();
  next_run_ = 1;
  *completion = now;
  Result<std::vector<uint8_t>> dir = volume_->Read(kDirectoryRun, now,
                                                   completion);
  if (!dir.ok()) {
    if (dir.status().IsNotFound()) return Status::Ok();  // fresh volume
    return dir.status();
  }
  ByteReader reader(dir.value());
  next_run_ = reader.GetU64();
  uint64_t n = reader.GetU64();
  // An entry is at least a u32 name length and a u64 run.
  if (reader.overflow() || n > reader.remaining() / 12) {
    return Status::Corruption("system directory");
  }
  for (uint64_t i = 0; i < n; ++i) {
    std::string name = reader.GetString();
    uint64_t run = reader.GetU64();
    directory_[name] = run;
  }
  if (reader.overflow()) return Status::Corruption("system directory");
  return Status::Ok();
}

Status SystemStore::PersistDirectory(SimTime now, SimTime* completion) {
  std::vector<uint8_t> bytes;
  PutU64(bytes, next_run_);
  PutU64(bytes, directory_.size());
  for (const auto& [name, run] : directory_) {
    PutString(bytes, name);
    PutU64(bytes, run);
  }
  return volume_->Write(kDirectoryRun, std::move(bytes), now, completion);
}

Status SystemStore::Put(const std::string& name,
                        const std::vector<uint8_t>& value, SimTime now,
                        SimTime* completion) {
  CLOUDIQ_RETURN_IF_ERROR(RefreshDirectory(now, completion));
  now = *completion;
  auto it = directory_.find(name);
  bool new_entry = it == directory_.end();
  uint64_t run = new_entry ? next_run_++ : it->second;
  CLOUDIQ_RETURN_IF_ERROR(volume_->Write(run, value, now, completion));
  if (new_entry) {
    directory_[name] = run;
    return PersistDirectory(*completion, completion);
  }
  return Status::Ok();
}

Result<std::vector<uint8_t>> SystemStore::Get(const std::string& name,
                                              SimTime now,
                                              SimTime* completion) {
  CLOUDIQ_RETURN_IF_ERROR(RefreshDirectory(now, completion));
  now = *completion;
  auto it = directory_.find(name);
  if (it == directory_.end()) return Status::NotFound(name);
  return volume_->Read(it->second, now, completion);
}

Status SystemStore::Delete(const std::string& name, SimTime now,
                           SimTime* completion) {
  CLOUDIQ_RETURN_IF_ERROR(RefreshDirectory(now, completion));
  now = *completion;
  auto it = directory_.find(name);
  if (it == directory_.end()) return Status::Ok();
  CLOUDIQ_RETURN_IF_ERROR(volume_->Free(it->second, now, completion));
  directory_.erase(it);
  return PersistDirectory(*completion, completion);
}

std::vector<std::string> SystemStore::List() const {
  std::vector<std::string> names;
  names.reserve(directory_.size());
  for (const auto& [name, run] : directory_) names.push_back(name);
  return names;
}

uint64_t SystemStore::StoredBytes() const { return volume_->StoredBytes(); }

}  // namespace cloudiq
