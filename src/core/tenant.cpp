#include "core/tenant.hpp"

#include <cinttypes>
#include <cstdio>

namespace ash::core {

const char* to_string(TenantDeny d) noexcept {
  switch (d) {
    case TenantDeny::CycleQuota: return "cycle-quota";
    case TenantDeny::RxQuota: return "rx-quota";
    case TenantDeny::BufferQuota: return "buffer-quota";
    case TenantDeny::DownloadQuota: return "download-quota";
    case TenantDeny::Revoked: return "revoked";
  }
  return "?";
}

namespace {
// pids past this stay out of the index (a hand-made Process may carry
// any pid; kernel pids count up from 1).
constexpr std::uint32_t kIndexedPids = 1u << 16;
}  // namespace

TenantScheduler::TenantScheduler(sim::Node& node,
                                 const TenantSchedulerConfig& cfg)
    : node_(node), cfg_(cfg) {
  if (cfg_.replenish_period == 0) cfg_.replenish_period = 1;
  if (cfg_.default_weight == 0) cfg_.default_weight = 1;
  if (cfg_.burst_rounds == 0) cfg_.burst_rounds = 1;
}

TenantAccount& TenantScheduler::account(const sim::Process& owner) {
  const std::uint32_t pid = owner.pid();
  if (pid < by_pid_.size() && by_pid_[pid] != nullptr) return *by_pid_[pid];
  auto [it, inserted] = accounts_.try_emplace(pid);
  TenantAccount& acct = it->second;
  if (pid < kIndexedPids) {
    if (pid >= by_pid_.size()) by_pid_.resize(pid + 1, nullptr);
    by_pid_[pid] = &acct;
  }
  if (inserted) {
    acct.pid = pid;
    acct.name = owner.name();
    acct.weight = cfg_.default_weight;
    // A new account starts with one full round banked so a tenant's very
    // first message is never denied by an empty ledger.
    acct.deficit = static_cast<std::int64_t>(cfg_.quantum_per_weight) *
                   acct.weight;
    acct.last_replenish = node_.now();
  }
  return acct;
}

const TenantAccount* TenantScheduler::find_account(
    std::uint32_t pid) const noexcept {
  if (pid < by_pid_.size()) return by_pid_[pid];
  const auto it = accounts_.find(pid);
  return it == accounts_.end() ? nullptr : &it->second;
}

void TenantScheduler::set_tenant(const sim::Process& owner,
                                 const TenantConfig& cfg) {
  TenantAccount& acct = account(owner);
  const std::uint32_t w = cfg.weight == 0 ? 1 : cfg.weight;
  // Re-seed a never-charged first-round bank so "register, then weight"
  // and "weight at registration" are equivalent. Once the account has
  // spent or banked anything beyond the seed, the weight only changes
  // future earnings.
  const std::int64_t seed =
      static_cast<std::int64_t>(cfg_.quantum_per_weight) * acct.weight;
  if (acct.runs == 0 && acct.cycles_charged == 0 && acct.deficit == seed) {
    acct.deficit = static_cast<std::int64_t>(cfg_.quantum_per_weight) * w;
  }
  acct.weight = w;
}

void TenantScheduler::replenish(TenantAccount& acct) {
  const sim::Cycles now = node_.now();
  if (now < acct.last_replenish) return;
  const std::uint64_t rounds =
      (now - acct.last_replenish) / cfg_.replenish_period;
  if (rounds == 0) return;
  acct.last_replenish += rounds * cfg_.replenish_period;
  // Credit at most burst_rounds worth — the bank cap — which also keeps
  // the arithmetic far from overflow for long-idle tenants.
  const std::uint64_t credit_rounds =
      rounds < cfg_.burst_rounds ? rounds : cfg_.burst_rounds;
  const std::int64_t earned =
      static_cast<std::int64_t>(credit_rounds) *
      static_cast<std::int64_t>(cfg_.quantum_per_weight) * acct.weight;
  const std::int64_t cap = static_cast<std::int64_t>(cfg_.burst_rounds) *
                           static_cast<std::int64_t>(cfg_.quantum_per_weight) *
                           acct.weight;
  acct.deficit += earned;
  if (acct.deficit > cap) acct.deficit = cap;
}

bool TenantScheduler::admit_cycles(const sim::Process& owner) {
  TenantAccount& acct = account(owner);
  if (acct.revoked) {
    ++acct.denials[static_cast<std::size_t>(TenantDeny::Revoked)];
    return false;
  }
  replenish(acct);
  if (acct.deficit <= 0) {
    ++acct.denials[static_cast<std::size_t>(TenantDeny::CycleQuota)];
    return false;
  }
  return true;
}

void TenantScheduler::charge(const sim::Process& owner,
                             std::uint64_t cycles) {
  TenantAccount& acct = account(owner);
  ++acct.runs;
  acct.cycles_charged += cycles;
  acct.deficit -= static_cast<std::int64_t>(cycles);
}

bool TenantScheduler::admit_download(const sim::Process& owner,
                                     std::uint64_t image_bytes,
                                     TenantDeny* why) {
  TenantAccount& acct = account(owner);
  TenantDeny deny;
  if (acct.revoked) {
    deny = TenantDeny::Revoked;
  } else if (cfg_.max_handlers != 0 && acct.handlers >= cfg_.max_handlers) {
    deny = TenantDeny::DownloadQuota;
  } else if (cfg_.buffer_bytes_cap != 0 &&
             acct.buffer_bytes + image_bytes > cfg_.buffer_bytes_cap) {
    deny = TenantDeny::BufferQuota;
  } else {
    ++acct.handlers;
    acct.buffer_bytes += image_bytes;
    return true;
  }
  ++acct.denials[static_cast<std::size_t>(deny)];
  if (why != nullptr) *why = deny;
  return false;
}

void TenantScheduler::on_owner_revoked(const sim::Process& owner) {
  TenantAccount& acct = account(owner);
  acct.revoked = true;
  // The refund: a revoked tenant's outstanding debt (an overdrawn
  // deficit) is written off so the ledger closes; it can also never
  // spend a banked surplus again.
  acct.deficit = 0;
}

void TenantScheduler::note_drained(const sim::Process& owner,
                                   std::uint64_t frames) {
  account(owner).drained_frames += frames;
}

bool TenantScheduler::try_admit(const sim::Process* owner) {
  if (owner == nullptr) return true;  // unowned frames are the device's
  TenantAccount& acct = account(*owner);
  if (acct.revoked) {
    ++acct.denials[static_cast<std::size_t>(TenantDeny::Revoked)];
    return false;
  }
  if (cfg_.rx_quota_frames != 0 && acct.rx_pending >= cfg_.rx_quota_frames) {
    ++acct.denials[static_cast<std::size_t>(TenantDeny::RxQuota)];
    return false;
  }
  ++acct.rx_pending;
  ++acct.rx_enqueued;
  return true;
}

void TenantScheduler::on_dispatched(const sim::Process* owner) {
  if (owner == nullptr) return;
  TenantAccount& acct = account(*owner);
  if (acct.rx_pending > 0) --acct.rx_pending;
}

void TenantScheduler::on_drop(const sim::Process* owner,
                              net::RxDropReason reason) {
  if (owner == nullptr) return;
  TenantAccount& acct = account(*owner);
  if (reason == net::RxDropReason::Overflow) {
    ++acct.rx_overflow_drops;
  } else {
    ++acct.rx_quota_drops;
  }
}

std::string TenantScheduler::format_table() const {
  std::string out;
  char line[320];
  std::snprintf(line, sizeof line,
                "tenants: %zu (quantum=%" PRIu64
                " cyc/weight per %" PRIu64 " cyc round, burst=%u rounds)\n",
                accounts_.size(), cfg_.quantum_per_weight,
                static_cast<std::uint64_t>(cfg_.replenish_period),
                cfg_.burst_rounds);
  out += line;
  std::snprintf(line, sizeof line,
                "%5s  %-12s %2s %-8s %8s %12s %9s %8s %8s %8s %8s\n", "pid",
                "tenant", "w", "state", "runs", "charged", "deny", "rx-in",
                "rx-drop", "drained", "handlers");
  out += line;
  for (const auto& [pid, a] : accounts_) {
    std::uint64_t denials = 0;
    for (const std::uint64_t d : a.denials) denials += d;
    std::snprintf(line, sizeof line,
                  "%5u  %-12s %2u %-8s %8" PRIu64 " %8" PRIu64
                  " cyc %9" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                  " %8u\n",
                  pid, a.name.c_str(), a.weight,
                  a.revoked ? "revoked" : "active", a.runs, a.cycles_charged,
                  denials, a.rx_enqueued,
                  a.rx_quota_drops + a.rx_overflow_drops, a.drained_frames,
                  a.handlers);
    out += line;
    if (denials != 0) {
      std::snprintf(line, sizeof line,
                    "       denials: cycle-quota=%" PRIu64 " rx-quota=%" PRIu64
                    " buffer-quota=%" PRIu64 " download-quota=%" PRIu64
                    " revoked=%" PRIu64 "\n",
                    a.denials[0], a.denials[1], a.denials[2], a.denials[3],
                    a.denials[4]);
      out += line;
    }
  }
  return out;
}

std::string TenantScheduler::tenants_json() const {
  std::string out = "{\"tenants\":[";
  char buf[512];
  bool first = true;
  for (const auto& [pid, a] : accounts_) {
    std::snprintf(
        buf, sizeof buf,
        "%s{\"pid\":%u,\"name\":\"%s\",\"weight\":%u,\"revoked\":%s"
        ",\"runs\":%" PRIu64 ",\"charged_cyc\":%" PRIu64
        ",\"deficit_cyc\":%" PRId64 ",\"rx_enqueued\":%" PRIu64
        ",\"rx_quota_drops\":%" PRIu64 ",\"rx_overflow_drops\":%" PRIu64
        ",\"drained\":%" PRIu64 ",\"handlers\":%u,\"buffer_bytes\":%" PRIu64
        ",\"denials\":{\"cycle_quota\":%" PRIu64 ",\"rx_quota\":%" PRIu64
        ",\"buffer_quota\":%" PRIu64 ",\"download_quota\":%" PRIu64
        ",\"revoked\":%" PRIu64 "}}",
        first ? "" : ",", pid, a.name.c_str(), a.weight,
        a.revoked ? "true" : "false", a.runs, a.cycles_charged, a.deficit,
        a.rx_enqueued, a.rx_quota_drops, a.rx_overflow_drops,
        a.drained_frames, a.handlers, a.buffer_bytes, a.denials[0],
        a.denials[1], a.denials[2], a.denials[3], a.denials[4]);
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace ash::core
