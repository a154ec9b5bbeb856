#include "src/txn/lock_manager.h"

#include <optional>

#include "src/buffer/buffer_pool.h"
#include "src/obs/span.h"

namespace invfs {

LockManager::LockManager(MetricsRegistry* metrics) {
#ifdef INVFS_DEBUG_INVARIANTS
  debug_invariants_ = true;
#endif
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  acquisitions_ = metrics->GetCounter("lock.acquisitions");
  waits_ = metrics->GetCounter("lock.waits");
  wait_us_ = metrics->GetHistogram("lock.wait_us");
}

void LockManager::set_debug_invariants(bool on) {
  MutexLock lock(mu_);
  debug_invariants_ = on;
  if (!on) {
    history_.clear();
    released_.clear();
    violations_.clear();
  }
}

bool LockManager::debug_invariants() const {
  MutexLock lock(mu_);
  return debug_invariants_;
}

std::vector<LockManager::Acquisition> LockManager::AcquisitionHistory(
    TxnId txn) const {
  MutexLock lock(mu_);
  auto it = history_.find(txn);
  return it == history_.end() ? std::vector<Acquisition>{} : it->second;
}

std::vector<std::string> LockManager::violations() const {
  MutexLock lock(mu_);
  return violations_;
}

void LockManager::ClearViolations() {
  MutexLock lock(mu_);
  violations_.clear();
}

void LockManager::RecordViolation(std::string what) {
  violations_.push_back(std::move(what));
}

std::string LockManager::DumpWaitsForLocked() const {
  std::string out;
  for (const auto& [txn, rel] : waiting_on_) {
    out += "txn " + std::to_string(txn) + " waits on rel " + std::to_string(rel) +
           " held by {";
    auto it = locks_.find(rel);
    bool first = true;
    if (it != locks_.end()) {
      for (const auto& [holder, mode] : it->second.holders) {
        if (holder == txn) {
          continue;
        }
        if (!first) {
          out += ", ";
        }
        first = false;
        out += std::to_string(holder) +
               (mode == LockMode::kExclusive ? ":X" : ":S");
      }
    }
    out += "}\n";
  }
  return out;
}

std::string LockManager::DumpWaitsFor() const {
  MutexLock lock(mu_);
  return DumpWaitsForLocked();
}

bool LockManager::Compatible(const RelLock& state, TxnId txn, LockMode mode) {
  for (const auto& [holder, held_mode] : state.holders) {
    if (holder == txn) {
      continue;  // self-compatibility (including upgrade)
    }
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

bool LockManager::WouldDeadlock(TxnId txn, Oid rel) const {
  // DFS over the waits-for graph starting from the holders that block `txn`.
  // Edge u -> v exists when u waits on a relation v holds.
  std::set<TxnId> visited;
  std::vector<TxnId> stack;
  auto it = locks_.find(rel);
  if (it == locks_.end()) {
    return false;
  }
  for (const auto& [holder, mode] : it->second.holders) {
    if (holder != txn) {
      stack.push_back(holder);
    }
  }
  while (!stack.empty()) {
    TxnId u = stack.back();
    stack.pop_back();
    if (u == txn) {
      return true;  // cycle back to the requester
    }
    if (!visited.insert(u).second) {
      continue;
    }
    auto wit = waiting_on_.find(u);
    if (wit == waiting_on_.end()) {
      continue;
    }
    auto lit = locks_.find(wit->second);
    if (lit == locks_.end()) {
      continue;
    }
    for (const auto& [holder, mode] : lit->second.holders) {
      if (holder != u) {
        stack.push_back(holder);
      }
    }
  }
  return false;
}

Status LockManager::Acquire(TxnId txn, Oid rel, LockMode mode) {
  MutexLock lock(mu_);
  if (debug_invariants_ && released_.count(txn) != 0) {
    RecordViolation("2PL violation: txn " + std::to_string(txn) +
                    " acquires rel " + std::to_string(rel) +
                    " after entering its shrinking phase");
  }
  bool upgrade = false;
  {
    RelLock& state = locks_[rel];
    // Already hold a sufficient lock?
    auto hit = state.holders.find(txn);
    if (hit != state.holders.end() &&
        (hit->second == LockMode::kExclusive || mode == LockMode::kShared)) {
      return Status::Ok();
    }
    upgrade = hit != state.holders.end();
  }
  acquisitions_->Add();
  bool inversion_reported = false;
  // Opened lazily on the first block; ends at the grant, whose lock.wait_us
  // observation is the span's own duration, or when Acquire returns on a
  // deadlock.
  std::optional<ScopedSpan> wait_span;
  // Note: the RelLock node must be re-fetched after every wait. A pure waiter
  // (no hold of its own on `rel`) sleeps while ReleaseAll may erase the node
  // once its last holder leaves; a reference held across the wait would
  // dangle and the grant below would write into a dead node — the lock would
  // appear granted but vanish from the table.
  while (!Compatible(locks_[rel], txn, mode)) {
    if (WouldDeadlock(txn, rel)) {
      if (wait_span.has_value()) {
        wait_us_->Observe(wait_span->Finish());
      }
      return Status::Deadlock("txn " + std::to_string(txn) + " would deadlock on rel " +
                              std::to_string(rel));
    }
    if (debug_invariants_ && !inversion_reported &&
        BufferPool::ThreadPinCount() > 0) {
      // Blocking on a table lock while holding page pins can starve eviction
      // (pinned frames are unevictable) — a latch-before-lock inversion. The
      // granted/fast path is exempt: holding pins while *taking* a free lock
      // is harmless.
      RecordViolation("latch-lock inversion: txn " + std::to_string(txn) +
                      " blocks on rel " + std::to_string(rel) + " holding " +
                      std::to_string(BufferPool::ThreadPinCount()) +
                      " page pin(s)\nwaits-for at block time:\n" +
                      DumpWaitsForLocked());
      inversion_reported = true;
    }
    if (!wait_span.has_value()) {
      waits_->Add();
      wait_span.emplace(&metrics_->spans(), "lock.wait", txn, rel);
    }
    waiting_on_[txn] = rel;
    cv_.Wait(mu_);
    waiting_on_.erase(txn);
  }
  if (wait_span.has_value()) {
    wait_us_->Observe(wait_span->Finish());
  }
  locks_[rel].holders[txn] = mode;  // grants and upgrades
  if (debug_invariants_) {
    history_[txn].push_back(Acquisition{next_seq_++, txn, rel, mode, upgrade});
  }
  return Status::Ok();
}

void LockManager::ReleaseAll(TxnId txn) {
  MutexLock lock(mu_);
  bool held_any = false;
  for (auto it = locks_.begin(); it != locks_.end();) {
    held_any |= it->second.holders.erase(txn) != 0;
    if (it->second.holders.empty()) {
      it = locks_.erase(it);
    } else {
      ++it;
    }
  }
  waiting_on_.erase(txn);
  if (debug_invariants_ && held_any) {
    released_.insert(txn);
    history_.erase(txn);
  }
  cv_.NotifyAll();
}

bool LockManager::Holds(TxnId txn, Oid rel, LockMode mode) const {
  MutexLock lock(mu_);
  auto it = locks_.find(rel);
  if (it == locks_.end()) {
    return false;
  }
  auto hit = it->second.holders.find(txn);
  if (hit == it->second.holders.end()) {
    return false;
  }
  return mode == LockMode::kShared || hit->second == LockMode::kExclusive;
}

size_t LockManager::NumLockedRelations() const {
  MutexLock lock(mu_);
  return locks_.size();
}

}  // namespace invfs
