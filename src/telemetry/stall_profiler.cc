#include "telemetry/stall_profiler.h"

#include <algorithm>
#include <cassert>

namespace cloudiq {

StallProfiler::Frame* StallProfiler::FrameLocked() {
  return ledger_->current_frame_ != nullptr ? ledger_->current_frame_
                                            : &ledger_->default_frame_;
}

void StallProfiler::RegisterLocked(const Key& key, WaitClass cls, int64_t n,
                                   bool wall) {
  if (n == 0) return;
  Frame* frame = FrameLocked();
  if (wall && !frame->stack.empty() &&
      frame->stack.back().kind == Frame::Node::kScope) {
    frame->stack.back().inner_ns += n;
  }
  // The innermost parallel/background section decides where the charge
  // lands; scopes are transparent for this (they only track inner time).
  bool background = false;
  for (auto it = frame->stack.rbegin(); it != frame->stack.rend(); ++it) {
    if (it->kind == Frame::Node::kParallel) {
      it->lanes[{key, static_cast<int>(cls)}] += n;
      return;
    }
    if (it->kind == Frame::Node::kBackground) {
      background = true;
      break;
    }
  }
  // The current key's entry is usually the ledger's cached one.
  CostLedger::Entry* entry =
      ledger_->cached_entry_ != nullptr && key == ledger_->CurrentKeyLocked()
          ? ledger_->cached_entry_
          : &ledger_->entries_[key];
  entry->waits.ns[static_cast<int>(cls)] += n;
  if (background) {
    entry->waits.background += n;
    ledger_->background_ns_ += n;
    return;
  }
  // Only wall charges outside any section credit the window directly.
  // Inside a foreground scope the outermost scope's elapsed credits it
  // when the scope closes — which also covers the scope's own residual
  // (wall=false), so that must never credit the window a second time.
  if (wall && frame->stack.empty()) ledger_->window_ns_ += n;
}

void StallProfiler::Charge(WaitClass cls, double start_seconds,
                           double end_seconds) {
  int64_t n = ToNanos(end_seconds) - ToNanos(start_seconds);
  if (n <= 0) return;
  uint32_t node_id;
  {
    MutexLock lock(&ledger_->mu_);
    Key key = ledger_->CurrentKeyLocked();
    node_id = key.node_id;
    RegisterLocked(key, cls, n, /*wall=*/true);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->CompleteSpan(node_id, kTrackStall, "stall", WaitClassName(cls),
                          start_seconds, end_seconds);
  }
}

void StallProfiler::BeginScope(WaitClass cls, double start_seconds) {
  MutexLock lock(&ledger_->mu_);
  FrameLocked()->stack.push_back({.kind = Frame::Node::kScope,
                                  .cls = cls,
                                  .start_ns = ToNanos(start_seconds)});
}

void StallProfiler::PinScopeAttribution() {
  MutexLock lock(&ledger_->mu_);
  Frame* frame = FrameLocked();
  for (auto it = frame->stack.rbegin(); it != frame->stack.rend(); ++it) {
    if (it->kind == Frame::Node::kScope) {
      it->pinned = true;
      it->key = ledger_->CurrentKeyLocked();
      return;
    }
  }
}

void StallProfiler::EndScope(double end_seconds) {
  MutexLock lock(&ledger_->mu_);
  Frame* frame = FrameLocked();
  assert(!frame->stack.empty() &&
         frame->stack.back().kind == Frame::Node::kScope);
  if (frame->stack.empty()) return;
  Frame::Node scope = std::move(frame->stack.back());
  frame->stack.pop_back();

  int64_t elapsed = ToNanos(end_seconds) - scope.start_ns;
  if (elapsed < 0) elapsed = 0;
  // Inner charges are disjoint sub-windows converted with the same
  // monotonic llround, so they cannot exceed the scope's own elapsed;
  // the clamp only defends against mis-bracketed instrumentation.
  int64_t residual = elapsed - scope.inner_ns;
  if (residual < 0) {
    assert(false && "stall scope inner charges exceed elapsed");
    residual = 0;
    elapsed = scope.inner_ns;
  }
  RegisterLocked(scope.pinned ? scope.key : ledger_->CurrentKeyLocked(),
                 scope.cls, residual, /*wall=*/false);

  if (frame->stack.empty()) {
    ledger_->window_ns_ += elapsed;
  } else if (frame->stack.back().kind == Frame::Node::kScope) {
    frame->stack.back().inner_ns += elapsed;
  }
  // Parent parallel/background: nothing — the scope's charges landed in
  // the lanes / background tally individually, summing to elapsed.
}

void StallProfiler::BeginParallel(double start_seconds) {
  MutexLock lock(&ledger_->mu_);
  FrameLocked()->stack.push_back(
      {.kind = Frame::Node::kParallel, .start_ns = ToNanos(start_seconds)});
}

void StallProfiler::EndParallel(double end_seconds) {
  MutexLock lock(&ledger_->mu_);
  Frame* frame = FrameLocked();
  assert(!frame->stack.empty() &&
         frame->stack.back().kind == Frame::Node::kParallel);
  if (frame->stack.empty()) return;
  Frame::Node section = std::move(frame->stack.back());
  frame->stack.pop_back();

  int64_t elapsed = ToNanos(end_seconds) - section.start_ns;
  if (elapsed < 0) elapsed = 0;
  if (section.lanes.empty()) return;  // wall time absorbed by the parent

  int64_t weight = 0;
  for (const auto& [lane, n] : section.lanes) weight += n;
  if (weight <= elapsed) {
    // No overlap (or idle tail): register raw lane charges; the
    // remainder stays with the parent scope's residual.
    for (const auto& [lane, n] : section.lanes) {
      RegisterLocked(lane.first, static_cast<WaitClass>(lane.second), n,
                     /*wall=*/true);
    }
    return;
  }

  // Lanes overlapped in wall sim-time: scale the raw charges down to the
  // section's actual elapsed nanoseconds, largest-remainder rounding so
  // the scaled parts sum to `elapsed` exactly and deterministically
  // (lanes is an ordered map).
  struct Share {
    const Key* key;
    int cls;
    int64_t base;
    int64_t rem;
    size_t order;
  };
  std::vector<Share> shares;
  shares.reserve(section.lanes.size());
  int64_t assigned = 0;
  size_t order = 0;
  for (const auto& [lane, n] : section.lanes) {
    __int128 scaled = static_cast<__int128>(n) * elapsed;
    int64_t base = static_cast<int64_t>(scaled / weight);
    int64_t rem = static_cast<int64_t>(scaled % weight);
    assigned += base;
    shares.push_back(Share{&lane.first, lane.second, base, rem, order++});
  }
  int64_t leftover = elapsed - assigned;  // 0 <= leftover < lanes.size()
  std::sort(shares.begin(), shares.end(), [](const Share& a, const Share& b) {
    if (a.rem != b.rem) return a.rem > b.rem;
    return a.order < b.order;
  });
  for (Share& share : shares) {
    int64_t n = share.base + (leftover > 0 ? 1 : 0);
    if (leftover > 0) --leftover;
    RegisterLocked(*share.key, static_cast<WaitClass>(share.cls), n,
                   /*wall=*/true);
  }
}

void StallProfiler::BeginBackground() {
  MutexLock lock(&ledger_->mu_);
  FrameLocked()->stack.push_back({.kind = Frame::Node::kBackground});
}

void StallProfiler::EndBackground() {
  MutexLock lock(&ledger_->mu_);
  Frame* frame = FrameLocked();
  assert(!frame->stack.empty() &&
         frame->stack.back().kind == Frame::Node::kBackground);
  if (!frame->stack.empty()) frame->stack.pop_back();
}

StallProfiler::Frame* StallProfiler::SwapFrame(Frame* next) {
  MutexLock lock(&ledger_->mu_);
  Frame* prev = ledger_->current_frame_;
  ledger_->current_frame_ = next;
  return prev;
}

}  // namespace cloudiq
