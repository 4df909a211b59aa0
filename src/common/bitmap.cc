#include "common/bitmap.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace cloudiq {

void Bitmap::Resize(uint64_t num_bits) {
  if (num_bits <= num_bits_) return;
  num_bits_ = num_bits;
  words_.resize((num_bits + kWordBits - 1) / kWordBits, 0);
}

void Bitmap::Set(uint64_t bit) {
  if (bit >= num_bits_) Resize(bit + 1);
  words_[bit / kWordBits] |= (uint64_t{1} << (bit % kWordBits));
}

void Bitmap::Clear(uint64_t bit) {
  if (bit >= num_bits_) return;
  words_[bit / kWordBits] &= ~(uint64_t{1} << (bit % kWordBits));
}

bool Bitmap::Test(uint64_t bit) const {
  if (bit >= num_bits_) return false;
  return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1;
}

void Bitmap::SetRange(uint64_t begin, uint64_t end) {
  for (uint64_t b = begin; b < end; ++b) Set(b);
}

void Bitmap::ClearRange(uint64_t begin, uint64_t end) {
  for (uint64_t b = begin; b < end && b < num_bits_; ++b) Clear(b);
}

uint64_t Bitmap::CountSet() const {
  uint64_t count = 0;
  for (uint64_t w : words_) count += std::popcount(w);
  return count;
}

uint64_t Bitmap::FindClearRun(uint64_t from, uint64_t run_length) {
  assert(run_length > 0);
  uint64_t candidate = from;
  uint64_t run = 0;
  uint64_t bit = from;
  while (run < run_length) {
    if (bit >= num_bits_) {
      // Everything past the end is clear; the run completes here.
      return candidate;
    }
    if (Test(bit)) {
      candidate = bit + 1;
      run = 0;
    } else {
      ++run;
    }
    ++bit;
  }
  return candidate;
}

std::vector<uint64_t> Bitmap::SetBits() const {
  std::vector<uint64_t> bits;
  for (uint64_t wi = 0; wi < words_.size(); ++wi) {
    uint64_t w = words_[wi];
    while (w != 0) {
      int tz = std::countr_zero(w);
      bits.push_back(wi * kWordBits + static_cast<uint64_t>(tz));
      w &= w - 1;
    }
  }
  return bits;
}

void Bitmap::UnionWith(const Bitmap& other) {
  Resize(other.num_bits_);
  for (uint64_t i = 0; i < other.words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

void Bitmap::SubtractFrom(const Bitmap& other) {
  uint64_t n = std::min(words_.size(), other.words_.size());
  for (uint64_t i = 0; i < n; ++i) {
    words_[i] &= ~other.words_[i];
  }
}

std::vector<uint8_t> Bitmap::Serialize() const {
  std::vector<uint8_t> out(sizeof(uint64_t) * (1 + words_.size()));
  std::memcpy(out.data(), &num_bits_, sizeof(uint64_t));
  if (!words_.empty()) {
    std::memcpy(out.data() + sizeof(uint64_t), words_.data(),
                words_.size() * sizeof(uint64_t));
  }
  return out;
}

Result<Bitmap> Bitmap::Deserialize(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < sizeof(uint64_t) ||
      (bytes.size() - sizeof(uint64_t)) % sizeof(uint64_t) != 0) {
    return Status::Corruption("bitmap: bad frame size");
  }
  uint64_t num_bits = 0;
  std::memcpy(&num_bits, bytes.data(), sizeof(uint64_t));
  // Word count without the overflow of num_bits + kWordBits - 1.
  uint64_t words = num_bits / kWordBits + (num_bits % kWordBits != 0);
  if (words != (bytes.size() - sizeof(uint64_t)) / sizeof(uint64_t)) {
    return Status::Corruption("bitmap: bit count does not match size");
  }
  Bitmap bm;
  bm.Resize(num_bits);
  if (words > 0) {
    std::memcpy(bm.words_.data(), bytes.data() + sizeof(uint64_t),
                words * sizeof(uint64_t));
    uint64_t tail = num_bits % kWordBits;
    if (tail != 0 && (bm.words_.back() >> tail) != 0) {
      return Status::Corruption("bitmap: bit set past the end");
    }
  }
  return bm;
}

bool Bitmap::operator==(const Bitmap& other) const {
  // Bitmaps compare by set-bit content regardless of capacity.
  const Bitmap& a = words_.size() <= other.words_.size() ? *this : other;
  const Bitmap& b = words_.size() <= other.words_.size() ? other : *this;
  for (uint64_t i = 0; i < a.words_.size(); ++i) {
    if (a.words_[i] != b.words_[i]) return false;
  }
  for (uint64_t i = a.words_.size(); i < b.words_.size(); ++i) {
    if (b.words_[i] != 0) return false;
  }
  return true;
}

}  // namespace cloudiq
