#include "txn/txn_log.h"

#include "common/coding.h"

namespace cloudiq {

std::vector<uint8_t> TxnLogRecord::Serialize() const {
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(type));
  PutU32(out, node);
  PutU64(out, range_begin);
  PutU64(out, range_end);
  std::vector<uint8_t> keys = committed_keys.Serialize();
  PutU64(out, keys.size());
  PutBytes(out, keys.data(), keys.size());
  PutU64(out, txn_id);
  PutU64(out, commit_seq);
  PutString(out, rf_name);
  PutString(out, rb_name);
  PutU64(out, identity_updates.size());
  for (const auto& update : identity_updates) {
    PutU64(out, update.size());
    PutBytes(out, update.data(), update.size());
  }
  PutU64(out, dropped_objects.size());
  for (uint64_t id : dropped_objects) PutU64(out, id);
  return out;
}

Result<TxnLogRecord> TxnLogRecord::Deserialize(ByteReader& reader) {
  TxnLogRecord rec;
  uint32_t type = reader.GetU32();
  if (type > static_cast<uint32_t>(Type::kCheckpoint)) {
    return Status::Corruption("txn log record: type");
  }
  rec.type = static_cast<Type>(type);
  rec.node = reader.GetU32();
  rec.range_begin = reader.GetU64();
  rec.range_end = reader.GetU64();
  uint64_t keys_len = reader.GetU64();
  const uint8_t* keys = reader.Skip(keys_len);
  if (keys == nullptr) return Status::Corruption("txn log record: keys");
  CLOUDIQ_ASSIGN_OR_RETURN(rec.committed_keys,
                           IntervalSet::Deserialize(keys, keys_len));
  rec.txn_id = reader.GetU64();
  rec.commit_seq = reader.GetU64();
  rec.rf_name = reader.GetString();
  rec.rb_name = reader.GetString();
  // Every update and every dropped id takes at least 8 bytes, so a count
  // past remaining() / 8 is corrupt.
  uint64_t n_updates = reader.GetU64();
  if (reader.overflow() || n_updates > reader.remaining() / 8) {
    return Status::Corruption("txn log record: update count");
  }
  for (uint64_t i = 0; i < n_updates; ++i) {
    uint64_t len = reader.GetU64();
    const uint8_t* update = reader.Skip(len);
    if (update == nullptr || reader.overflow()) {
      return Status::Corruption("txn log record: update");
    }
    rec.identity_updates.emplace_back(update, update + len);
  }
  uint64_t n_dropped = reader.GetU64();
  if (reader.overflow() || n_dropped > reader.remaining() / 8) {
    return Status::Corruption("txn log record: dropped count");
  }
  rec.dropped_objects.reserve(n_dropped);
  for (uint64_t i = 0; i < n_dropped; ++i) {
    rec.dropped_objects.push_back(reader.GetU64());
  }
  return rec;
}

Status TxnLog::Persist(SimTime now, SimTime* completion) {
  std::vector<uint8_t> bytes;
  PutU64(bytes, records_.size());
  for (const TxnLogRecord& rec : records_) {
    std::vector<uint8_t> r = rec.Serialize();
    PutU64(bytes, r.size());
    PutBytes(bytes, r.data(), r.size());
  }
  return store_->Put(name_, bytes, now, completion);
}

Status TxnLog::Append(const TxnLogRecord& record, SimTime now,
                      SimTime* completion) {
  records_.push_back(record);
  return Persist(now, completion);
}

Status TxnLog::TruncateAtCheckpoint(SimTime now, SimTime* completion) {
  // Find the last checkpoint marker; drop it and everything before it.
  size_t cut = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].type == TxnLogRecord::Type::kCheckpoint) cut = i + 1;
  }
  if (cut > 0) {
    records_.erase(records_.begin(), records_.begin() + cut);
  }
  return Persist(now, completion);
}

Status TxnLog::Load(SimTime now, SimTime* completion) {
  records_.clear();
  Result<std::vector<uint8_t>> bytes = store_->Get(name_, now, completion);
  if (!bytes.ok()) {
    if (bytes.status().IsNotFound()) return Status::Ok();  // empty log
    return bytes.status();
  }
  ByteReader reader(bytes.value());
  uint64_t n = reader.GetU64();
  if (reader.overflow() || n > reader.remaining() / 8) {
    return Status::Corruption("transaction log: record count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t len = reader.GetU64();
    const uint8_t* rec_bytes = reader.Skip(len);
    if (rec_bytes == nullptr || reader.overflow()) {
      return Status::Corruption("transaction log");
    }
    ByteReader rec_reader(rec_bytes, len);
    CLOUDIQ_ASSIGN_OR_RETURN(TxnLogRecord rec,
                             TxnLogRecord::Deserialize(rec_reader));
    records_.push_back(std::move(rec));
  }
  return Status::Ok();
}

}  // namespace cloudiq
