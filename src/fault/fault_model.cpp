#include "fault/fault_model.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace doda::fault {

using dynagraph::kNever;

namespace {

bool isProbability(double p) noexcept {
  return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

void requireProbability(double p, const char* what) {
  if (!isProbability(p))
    throw std::invalid_argument(std::string("FaultModel: ") + what +
                                " must be a probability in [0, 1]");
}

}  // namespace

bool FaultModel::faultFree() const noexcept {
  const bool lossy =
      (loss == LossKind::kBernoulli && loss_p > 0.0) ||
      (loss == LossKind::kGilbertElliott &&
       (ge_loss_good > 0.0 || (ge_enter_bad > 0.0 && ge_loss_bad > 0.0)));
  return !lossy && crash_fraction <= 0.0 && byzantine_fraction <= 0.0;
}

FaultModel FaultModel::bernoulliLoss(double p) noexcept {
  FaultModel m;
  m.loss = LossKind::kBernoulli;
  m.loss_p = p;
  return m;
}

FaultModel FaultModel::gilbertElliott(double enter_bad, double exit_bad,
                                      double loss_good,
                                      double loss_bad) noexcept {
  FaultModel m;
  m.loss = LossKind::kGilbertElliott;
  m.ge_enter_bad = enter_bad;
  m.ge_exit_bad = exit_bad;
  m.ge_loss_good = loss_good;
  m.ge_loss_bad = loss_bad;
  return m;
}

FaultModel FaultModel::crashStop(double fraction, Time horizon) noexcept {
  FaultModel m;
  m.crash_fraction = fraction;
  m.crash_horizon = horizon;
  return m;
}

FaultModel FaultModel::byzantine(double fraction) noexcept {
  FaultModel m;
  m.byzantine_fraction = fraction;
  return m;
}

void FaultModel::validate() const {
  if (loss != LossKind::kNone && loss != LossKind::kBernoulli &&
      loss != LossKind::kGilbertElliott)
    throw std::invalid_argument("FaultModel: unknown loss kind");
  requireProbability(loss_p, "loss_p");
  requireProbability(ge_enter_bad, "ge_enter_bad");
  requireProbability(ge_exit_bad, "ge_exit_bad");
  requireProbability(ge_loss_good, "ge_loss_good");
  requireProbability(ge_loss_bad, "ge_loss_bad");
  requireProbability(crash_fraction, "crash_fraction");
  requireProbability(byzantine_fraction, "byzantine_fraction");
  if (crash_fraction > 0.0 && crash_horizon == 0)
    throw std::invalid_argument(
        "FaultModel: crash_fraction > 0 needs crash_horizon > 0");
}

FaultPlan FaultPlan::draw(const FaultModel& model, std::size_t node_count,
                          NodeId sink, std::uint64_t plan_seed) {
  model.validate();
  if (node_count < 2)
    throw std::invalid_argument("FaultPlan::draw: need at least 2 nodes");
  if (sink >= node_count)
    throw std::invalid_argument("FaultPlan::draw: sink out of range");

  FaultPlan plan;
  plan.loss = model.loss;
  plan.loss_p = model.loss_p;
  plan.ge_enter_bad = model.ge_enter_bad;
  plan.ge_exit_bad = model.ge_exit_bad;
  plan.ge_loss_good = model.ge_loss_good;
  plan.ge_loss_bad = model.ge_loss_bad;
  plan.crash_times.assign(node_count, kNever);
  plan.byzantine.assign(node_count, 0);

  // Fixed draw order (loss stream seed, then per non-sink node: Byzantine
  // flag, then crash flag + time) makes the plan a pure function of
  // (model, node_count, sink, plan_seed).
  util::Rng rng(plan_seed);
  plan.loss_seed = rng();
  for (NodeId u = 0; u < node_count; ++u) {
    if (u == sink) continue;
    if (model.byzantine_fraction > 0.0 &&
        rng.chance(model.byzantine_fraction)) {
      plan.byzantine[u] = 1;
      continue;  // Byzantine nodes never crash — they stay to do damage
    }
    if (model.crash_fraction > 0.0 && rng.chance(model.crash_fraction))
      plan.crash_times[u] = static_cast<Time>(
          rng.below(static_cast<std::uint64_t>(model.crash_horizon)));
  }
  return plan;
}

namespace {

constexpr std::uint32_t kPlanMagic = 0x46504c31;  // "FPL1" little-endian
constexpr std::size_t kHeaderBytes = 4 + 1 + 5 * 8 + 8 + 8;

template <typename T>
void appendLe(std::vector<std::uint8_t>& out, T value) {
  std::uint64_t bits;
  if constexpr (sizeof(T) == 8) {
    std::memcpy(&bits, &value, 8);
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  } else {
    static_assert(sizeof(T) == 4);
    std::uint32_t b;
    std::memcpy(&b, &value, 4);
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<std::uint8_t>(b >> (8 * i)));
  }
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t u32() { return static_cast<std::uint32_t>(raw(4)); }
  std::uint64_t u64() { return raw(8); }
  std::uint8_t u8() { return static_cast<std::uint8_t>(raw(1)); }
  double f64() {
    const std::uint64_t bits = raw(8);
    double value;
    std::memcpy(&value, &bits, 8);
    return value;
  }
  bool done() const noexcept { return pos_ == bytes_.size(); }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  std::uint64_t raw(std::size_t count) {
    if (bytes_.size() - pos_ < count)
      throw std::runtime_error("FaultPlan::parse: truncated input");
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < count; ++i)
      value |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += count;
    return value;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

double parsedProbability(ByteReader& reader, const char* what) {
  const double p = reader.f64();
  if (!(std::isfinite(p) && p >= 0.0 && p <= 1.0))
    throw std::runtime_error(std::string("FaultPlan::parse: ") + what +
                             " out of range");
  return p;
}

}  // namespace

std::vector<std::uint8_t> FaultPlan::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + crash_times.size() * 9);
  appendLe(out, kPlanMagic);
  out.push_back(static_cast<std::uint8_t>(loss));
  appendLe(out, loss_p);
  appendLe(out, ge_enter_bad);
  appendLe(out, ge_exit_bad);
  appendLe(out, ge_loss_good);
  appendLe(out, ge_loss_bad);
  appendLe(out, loss_seed);
  appendLe(out, static_cast<std::uint64_t>(crash_times.size()));
  for (const Time t : crash_times) appendLe(out, static_cast<std::uint64_t>(t));
  for (const std::uint8_t b : byzantine) out.push_back(b);
  return out;
}

FaultPlan FaultPlan::parse(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  if (reader.u32() != kPlanMagic)
    throw std::runtime_error("FaultPlan::parse: bad magic");
  FaultPlan plan;
  const std::uint8_t kind = reader.u8();
  if (kind > static_cast<std::uint8_t>(LossKind::kGilbertElliott))
    throw std::runtime_error("FaultPlan::parse: unknown loss kind");
  plan.loss = static_cast<LossKind>(kind);
  plan.loss_p = parsedProbability(reader, "loss_p");
  plan.ge_enter_bad = parsedProbability(reader, "ge_enter_bad");
  plan.ge_exit_bad = parsedProbability(reader, "ge_exit_bad");
  plan.ge_loss_good = parsedProbability(reader, "ge_loss_good");
  plan.ge_loss_bad = parsedProbability(reader, "ge_loss_bad");
  plan.loss_seed = reader.u64();
  const std::uint64_t n = reader.u64();
  if (n < 2 || n > (std::uint64_t{1} << 32))
    throw std::runtime_error("FaultPlan::parse: node count out of range");
  // Each node carries a u64 crash time and a u8 Byzantine flag: reject a
  // count the input cannot hold before sizing anything by it.
  if (n > reader.remaining() / 9)
    throw std::runtime_error("FaultPlan::parse: truncated input");
  plan.crash_times.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    plan.crash_times.push_back(static_cast<Time>(reader.u64()));
  plan.byzantine.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint8_t flag = reader.u8();
    if (flag > 1)
      throw std::runtime_error("FaultPlan::parse: bad Byzantine flag");
    plan.byzantine.push_back(flag);
  }
  if (!reader.done())
    throw std::runtime_error("FaultPlan::parse: trailing bytes");
  for (std::size_t u = 0; u < plan.crash_times.size(); ++u)
    if (plan.byzantine[u] && plan.crash_times[u] != kNever)
      throw std::runtime_error(
          "FaultPlan::parse: Byzantine node with a crash time");
  return plan;
}

FaultSession::FaultSession(FaultPlan plan) : plan_(std::move(plan)) {
  if (plan_.crash_times.size() != plan_.byzantine.size())
    throw std::invalid_argument("FaultSession: inconsistent plan sizes");
}

void FaultSession::reset(const core::SystemInfo& info) {
  if (plan_.nodeCount() != info.node_count)
    throw std::invalid_argument("FaultSession: plan drawn for " +
                                std::to_string(plan_.nodeCount()) +
                                " nodes, run has " +
                                std::to_string(info.node_count));
  loss_rng_ = util::Rng(plan_.loss_seed);
  ge_bad_ = false;
  verdict_ = false;
}

void FaultSession::beginInteraction(Time /*t*/) {
  // Exactly one advance per dispatched interaction, transfer or not: the
  // verdict for time t is a pure function of (loss_seed, t), independent of
  // what the algorithm does — the determinism contract the golden tests pin.
  switch (plan_.loss) {
    case LossKind::kNone:
      verdict_ = false;
      break;
    case LossKind::kBernoulli:
      verdict_ = loss_rng_.chance(plan_.loss_p);
      break;
    case LossKind::kGilbertElliott:
      verdict_ =
          loss_rng_.chance(ge_bad_ ? plan_.ge_loss_bad : plan_.ge_loss_good);
      ge_bad_ = loss_rng_.chance(ge_bad_ ? 1.0 - plan_.ge_exit_bad
                                         : plan_.ge_enter_bad);
      break;
  }
}

bool FaultSession::transmissionLost(Time /*t*/) { return verdict_; }

}  // namespace doda::fault
