#include "bdd/truth_table_bdd.h"

#include <stdexcept>

namespace mcrt {

BddRef table_bdd(BddManager& bdd, const TruthTable& table,
                 std::span<const BddRef> pins) {
  if (pins.size() != table.input_count()) {
    throw std::invalid_argument("table_bdd: one pin per table input");
  }
  if (table.input_count() == 0) {
    return table.eval(0) ? BddManager::kTrue : BddManager::kFalse;
  }
  const std::uint32_t last = table.input_count() - 1;
  const std::span<const BddRef> rest = pins.first(last);
  const BddRef low = table_bdd(bdd, table.cofactor(last, false), rest);
  const BddRef high = table_bdd(bdd, table.cofactor(last, true), rest);
  return bdd.ite(pins[last], high, low);
}

}  // namespace mcrt
