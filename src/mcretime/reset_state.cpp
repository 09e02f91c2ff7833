#include "mcretime/reset_state.h"

#include "bdd/bdd.h"
#include "bdd/truth_table_bdd.h"

namespace mcrt {

std::optional<ResetVal> merge_reset_values(const std::vector<ResetVal>& vals) {
  ResetVal merged = ResetVal::kDontCare;
  for (const ResetVal v : vals) {
    const std::optional<ResetVal> next = merge_reset_value(merged, v);
    if (!next) return std::nullopt;
    merged = *next;
  }
  return merged;
}

ResetVal imply_through(const TruthTable& f, const std::vector<ResetVal>& pins) {
  std::vector<Trit> trits;
  trits.reserve(pins.size());
  for (const ResetVal v : pins) trits.push_back(reset_val_trit(v));
  switch (f.eval_ternary(trits.data())) {
    case Trit::kZero: return ResetVal::kZero;
    case Trit::kOne: return ResetVal::kOne;
    case Trit::kUnknown: return ResetVal::kDontCare;
  }
  return ResetVal::kDontCare;
}

std::optional<std::vector<ResetVal>> justify_through(const TruthTable& f,
                                                     bool target) {
  BddManager bdd;
  std::vector<BddRef> vars;
  for (std::uint32_t i = 0; i < f.input_count(); ++i) vars.push_back(bdd.var(i));
  const BddRef out = table_bdd(bdd, f, vars);
  const auto cube = bdd.shortest_cube(target ? out : bdd.bdd_not(out));
  if (!cube) return std::nullopt;
  std::vector<ResetVal> pins(f.input_count(), ResetVal::kDontCare);
  for (const auto& lit : *cube) {
    pins[lit.var] = lit.value ? ResetVal::kOne : ResetVal::kZero;
  }
  return pins;
}

}  // namespace mcrt
