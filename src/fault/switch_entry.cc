#include "src/fault/switch_entry.h"

#include <algorithm>
#include <cstring>

#include "src/obs/span.h"

namespace invfs {

namespace {
// Torn writes are modeled at 512-byte sector granularity: a power failure
// mid-write leaves some sectors new, some old (disks reorder sectors within a
// page write; only individual sectors are atomic).
constexpr size_t kSectorSize = 512;
constexpr size_t kSectorsPerPage = kPageSize / kSectorSize;
}  // namespace

void FaultInjector::Arm(std::vector<FaultSpec> specs) {
  MutexLock lock(mu_);
  specs_ = std::move(specs);
  consumed_.assign(specs_.size(), false);
  pos_reads_ = 0;
  pos_writes_ = 0;
  arm_base_reads_ = reads_.load(std::memory_order_relaxed);
  arm_base_writes_ = writes_.load(std::memory_order_relaxed);
  if (specs_.empty()) {
    flags_.fetch_and(static_cast<uint8_t>(~kArmedFlag),
                     std::memory_order_release);
  } else {
    flags_.fetch_or(kArmedFlag, std::memory_order_release);
  }
}

void FaultInjector::Disarm() {
  MutexLock lock(mu_);
  specs_.clear();
  consumed_.clear();
  flags_.fetch_and(static_cast<uint8_t>(~kArmedFlag),
                   std::memory_order_release);
}

void FaultInjector::Crash() {
  flags_.fetch_or(kCrashedFlag, std::memory_order_release);
}

uint64_t FaultInjector::total_reads() const {
  return reads_.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::total_writes() const {
  return writes_.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::reads_since_arm() const {
  MutexLock lock(mu_);
  return reads_.load(std::memory_order_relaxed) - arm_base_reads_;
}

uint64_t FaultInjector::writes_since_arm() const {
  MutexLock lock(mu_);
  return writes_.load(std::memory_order_relaxed) - arm_base_writes_;
}

uint64_t FaultInjector::faults_fired() const {
  MutexLock lock(mu_);
  return faults_fired_;
}

FaultInjector::Verdict FaultInjector::OnOpArmed(FaultSpec::Op op) {
  MutexLock lock(mu_);
  // While armed, every op lands here, so the mu_-guarded position counter is
  // this op's exact 1-based position since Arm regardless of how lossy the
  // stat totals are. The matching total is bumped too so reporting stays
  // consistent with the unarmed path.
  BumpStat(op == FaultSpec::Op::kRead ? reads_ : writes_);
  const uint64_t since_arm =
      op == FaultSpec::Op::kRead ? ++pos_reads_ : ++pos_writes_;
  Verdict verdict;
  for (size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& s = specs_[i];
    if (s.op != op || s.at != since_arm) {
      continue;
    }
    // Each spec fires at most once: it names a single (op, position) and the
    // position counter only advances. Transient semantics — the retry
    // succeeds — fall out naturally, because the retry is the next position.
    // "Permanent" means the error status is kIoError, which SwitchEntry
    // refuses to retry and, on a write, converts into a read-only trip.
    if (consumed_[i]) {
      continue;
    }
    ++faults_fired_;
    consumed_[i] = true;
    if (s.kind == FaultSpec::Kind::kCrash) {
      flags_.fetch_or(kCrashedFlag, std::memory_order_release);
    }
    verdict = s.kind;
    break;
  }
  // Once every spec has fired the schedule is spent; drop back to the
  // lock-free fast path for the rest of the run.
  bool all_consumed = true;
  for (bool c : consumed_) {
    all_consumed = all_consumed && c;
  }
  if (all_consumed) {
    flags_.fetch_and(static_cast<uint8_t>(~kArmedFlag),
                     std::memory_order_release);
  }
  return verdict;
}

std::vector<std::byte> FaultInjector::CorruptImage(
    FaultSpec::Kind kind, std::span<const std::byte> data,
    std::span<const std::byte> old_page) {
  MutexLock lock(mu_);
  std::vector<std::byte> image(data.begin(), data.end());
  if (kind == FaultSpec::Kind::kBitFlip) {
    const size_t bit = rng_.Uniform(image.size() * 8);
    image[bit / 8] ^= std::byte{static_cast<uint8_t>(1U << (bit % 8))};
    return image;
  }
  // Torn write: keep a strict subset of the new sectors; the rest revert to
  // the pre-write content. Half the time it is a prefix (an in-order disk
  // that lost power), otherwise a random non-empty proper subset (a disk that
  // reorders sectors).
  const size_t sectors = std::min(kSectorsPerPage, image.size() / kSectorSize);
  std::vector<bool> keep_new(sectors, false);
  if (rng_.Uniform(2) == 0) {
    const size_t prefix = 1 + rng_.Uniform(sectors - 1);
    std::fill(keep_new.begin(),
              keep_new.begin() + static_cast<ptrdiff_t>(prefix), true);
  } else {
    size_t kept = 0;
    for (size_t s = 0; s < sectors; ++s) {
      if (rng_.Uniform(2) == 0) {
        keep_new[s] = true;
        ++kept;
      }
    }
    if (kept == 0) {
      keep_new[rng_.Uniform(sectors)] = true;
      kept = 1;
    }
    if (kept == sectors) {
      keep_new[rng_.Uniform(sectors)] = false;  // must lose something
    }
  }
  for (size_t s = 0; s < sectors; ++s) {
    if (!keep_new[s]) {
      const size_t off = s * kSectorSize;
      if (off + kSectorSize <= old_page.size()) {
        std::memcpy(image.data() + off, old_page.data() + off, kSectorSize);
      } else {
        std::memset(image.data() + off, 0, kSectorSize);  // extending write
      }
    }
  }
  return image;
}


SwitchEntry::Meter SwitchEntry::MakeMeter(MetricsRegistry* metrics,
                                          const std::string& op,
                                          std::string_view label) {
  return Meter{metrics->GetCounter("device." + op + "s", label),
               metrics->GetCounter("device." + op + "_bytes", label),
               metrics->GetHistogram("device." + op + "_us", label),
               InternSpanName("device." + op + "." + std::string(label))};
}

SwitchEntry::SwitchEntry(std::unique_ptr<DeviceManager> inner, SimClock* clock,
                         MetricsRegistry* metrics, FaultInjector* injector)
    : inner_(std::move(inner)),
      clock_(clock),
      injector_(injector),
      spans_(&metrics->spans()),
      read_(MakeMeter(metrics, "read", inner_->name())),
      write_(MakeMeter(metrics, "write", inner_->name())),
      retries_(metrics->GetCounter("device.retries", inner_->name())),
      permanent_errors_(
          metrics->GetCounter("device.permanent_errors", inner_->name())) {}

namespace {
// Write-path errors that trip the sticky read-only degradation: a transient
// error that survived every retry, or a hard I/O error (a halt included).
bool TripsReadOnly(const Status& s) {
  return s.IsTransientIo() || s.code() == ErrorCode::kIoError;
}

// Faults that persist a damaged page while reporting success.
bool IsCorruption(FaultSpec::Kind kind) {
  return kind == FaultSpec::Kind::kTornWrite ||
         kind == FaultSpec::Kind::kBitFlip;
}
}  // namespace

Status SwitchEntry::InjectedError(FaultSpec::Kind kind, const char* op) const {
  if (kind == FaultSpec::Kind::kTransientError) {
    return Status::TransientIo(std::string(name()) + ": injected transient " +
                               op + " error");
  }
  if (kind == FaultSpec::Kind::kPermanentError) {
    return Status::IoError(std::string(name()) + ": injected permanent " + op +
                           " error");
  }
  return HaltedError();
}

Status SwitchEntry::HaltedError() const {
  return Status::IoError(std::string(name()) +
                         ": halted at crash point (simulated power failure)");
}

template <typename Io>
Status SwitchEntry::Metered(const Meter& meter, Oid rel, uint32_t block,
                            size_t bytes, Io&& io) {
  ScopedSpan span(spans_, meter.span_name, rel, block);
  const SimMicros start = clock_->Peek();
  Status s = io();
  meter.ops->Add();
  meter.bytes->Add(bytes);
  meter.us->Observe(clock_->Peek() - start);
  return s;
}

Status SwitchEntry::ReadAttempt(Oid rel, uint32_t block,
                                std::span<std::byte> out) {
  return Metered(read_, rel, block, out.size(), [&] {
    const FaultInjector::Verdict fault =
        injector_ != nullptr ? injector_->OnOp(FaultSpec::Op::kRead)
                             : std::nullopt;
    // Reads are never corrupted: a torn-write or bit-flip verdict passes.
    if (!fault || IsCorruption(*fault)) {
      return inner_->ReadBlock(rel, block, out);
    }
    return InjectedError(*fault, "read");
  });
}

Status SwitchEntry::WriteAttempt(Oid rel, uint32_t block,
                                 std::span<const std::byte> data) {
  return Metered(write_, rel, block, data.size(), [&] {
    const FaultInjector::Verdict fault =
        injector_ != nullptr ? injector_->OnOp(FaultSpec::Op::kWrite)
                             : std::nullopt;
    if (!fault) [[likely]] {
      return inner_->WriteBlock(rel, block, data);
    }
    if (IsCorruption(*fault)) {
      return WriteCorrupted(*fault, rel, block, data);
    }
    return InjectedError(*fault, "write");
  });
}

Status SwitchEntry::WriteCorrupted(FaultSpec::Kind kind, Oid rel,
                                   uint32_t block,
                                   std::span<const std::byte> data) {
  // Persist a damaged image but report success: the caller believes the
  // write landed, exactly as a disk with a failing head would behave. The
  // old page is read straight from the inner device, uncounted.
  std::vector<std::byte> old_page(kPageSize, std::byte{0});
  INV_ASSIGN_OR_RETURN(uint32_t nblocks, inner_->NumBlocks(rel));
  if (block < nblocks) {
    INV_RETURN_IF_ERROR(inner_->ReadBlock(rel, block, old_page));
  }
  return inner_->WriteBlock(rel, block,
                            injector_->CorruptImage(kind, data, old_page));
}

template <typename Attempt>
[[gnu::noinline]] Status SwitchEntry::RetryTail(Status first,
                                                Attempt&& attempt) {
  // Retry/backoff stalls land on the request that suffered them: the span
  // nests under the caller's span and holds the retried device.* attempts,
  // so --breakdown attributes fault-layer time instead of mislabeling it as
  // plain device I/O.
  ScopedSpan span(spans_, "device.retry");
  Status s = std::move(first);
  SimMicros backoff = kBackoffUs;
  SimMicros waited = 0;
  for (int retry = 0; retry < kMaxRetries && s.IsTransientIo(); ++retry) {
    clock_->Advance(backoff);
    waited += backoff;
    backoff = std::min(backoff * 2, kMaxBackoffUs);
    retries_->Add();
    s = attempt();
    span.set_a(static_cast<uint64_t>(retry + 1));
    span.set_b(waited);
  }
  return s;
}

template <typename Attempt>
Status SwitchEntry::WithWritePolicy(Attempt&& attempt) {
  Status s = attempt();
  if (s.ok()) [[likely]] {
    return s;
  }
  s = RetryTail(std::move(s), attempt);
  if (!s.ok() && TripsReadOnly(s)) {
    return TripReadOnly(s);
  }
  return s;  // logical errors (bad block, missing relation) pass through
}

template <typename Op>
Status SwitchEntry::Control(Op&& op) {
  return WithWritePolicy([&] { return halted() ? HaltedError() : op(); });
}

Status SwitchEntry::ReadOnlyError() const {
  return Status::ReadOnlyDevice("device '" + std::string(name()) +
                                "' is read-only after a permanent write error");
}

Status SwitchEntry::TripReadOnly(const Status& cause) {
  if (!read_only_.exchange(true, std::memory_order_acq_rel)) {
    ScopedSpan span(spans_, "device.read_only_trip",
                    static_cast<uint64_t>(cause.code()));
    permanent_errors_->Add();
  }
  return Status::ReadOnlyDevice("device '" + std::string(name()) +
                                "' tripped read-only: " + cause.ToString());
}

Status SwitchEntry::CreateRelation(Oid rel) {
  if (read_only()) [[unlikely]] {
    return ReadOnlyError();
  }
  return Control([&] { return inner_->CreateRelation(rel); });
}

Status SwitchEntry::DropRelation(Oid rel) {
  if (read_only()) [[unlikely]] {
    return ReadOnlyError();
  }
  return Control([&] { return inner_->DropRelation(rel); });
}

Status SwitchEntry::Sync() {
  if (read_only()) {
    // A read-only device has nothing new to destage; syncing what already
    // landed is a no-op rather than an error, so shutdown paths stay clean.
    return Status::Ok();
  }
  return Control([&] { return inner_->Sync(); });
}

Status SwitchEntry::ReadBlock(Oid rel, uint32_t block,
                              std::span<std::byte> out) {
  // Reads are served even on a read-only device: that is the entire point of
  // the degradation (queries and recovery outlive a dying write path).
  Status s = ReadAttempt(rel, block, out);
  if (s.ok()) [[likely]] {
    return s;
  }
  s = RetryTail(std::move(s), [&] { return ReadAttempt(rel, block, out); });
  if (s.IsTransientIo()) {
    // Out of retries: surface as a hard I/O error so callers do not loop.
    return Status::IoError("read failed after " + std::to_string(kMaxRetries) +
                           " retries: " + s.ToString());
  }
  return s;
}

Status SwitchEntry::WriteBlock(Oid rel, uint32_t block,
                               std::span<const std::byte> data) {
  if (read_only()) [[unlikely]] {
    return ReadOnlyError();
  }
  return WithWritePolicy([&] { return WriteAttempt(rel, block, data); });
}

}  // namespace invfs
