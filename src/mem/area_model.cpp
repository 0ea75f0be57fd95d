#include "mem/area_model.hpp"

#include "common/error.hpp"

namespace pinatubo::mem {

double ChipArea::total_um2() const {
  double t = 0;
  for (const auto& i : items) t += i.area_um2;
  return t;
}

double ChipArea::find(const std::string& name) const {
  for (const auto& i : items)
    if (i.name == name) return i.area_um2;
  return 0.0;
}

double OverheadBreakdown::total_um2() const {
  double t = 0;
  for (const auto& i : items) t += i.area_um2;
  return t;
}

double OverheadBreakdown::percent(const std::string& name) const {
  PIN_CHECK(baseline_um2 > 0);
  for (const auto& i : items)
    if (i.name == name) return 100.0 * i.area_um2 / baseline_um2;
  return 0.0;
}

AreaModel::AreaModel(const nvm::CellParams& cell, const Geometry& geo)
    : cell_(&cell), geo_(geo) {
  geo_.validate();
  PIN_CHECK(cols_per_mat() % geo_.sa_mux_share == 0);
}

ChipArea AreaModel::baseline() const {
  ChipArea a;
  a.items.push_back(
      {"cell array",
       static_cast<double>(cells()) * cell_->cell_area_f2 * kF2Um2});
  a.items.push_back(
      {"sense amps",
       static_cast<double>(sense_amps()) * kSenseAmpF2 * kF2Um2});
  a.items.push_back(
      {"write drivers",
       static_cast<double>(sense_amps()) * kWriteDriverF2 * kF2Um2});
  a.items.push_back(
      {"lwl drivers",
       static_cast<double>(lwl_drivers()) * kLwlDriverF2 * kF2Um2});
  const double bls = static_cast<double>(subarrays()) *
                     static_cast<double>(geo_.row_slice_bits);
  a.items.push_back({"column mux", bls * kColMuxF2PerBl * kF2Um2});
  a.items.push_back(
      {"global row buffers", static_cast<double>(geo_.banks_per_chip) *
                                 static_cast<double>(geo_.row_slice_bits) *
                                 kRowBufF2PerBit * kF2Um2});
  a.items.push_back({"global routing/decoders", kGlobalFixedUm2});
  a.items.push_back({"io", kIoFixedUm2});
  a.items.push_back({"control", kCtrlFixedUm2});
  return a;
}

OverheadBreakdown AreaModel::pinatubo_overhead() const {
  OverheadBreakdown o;
  o.baseline_um2 = baseline().total_um2();
  // Intra-subarray pieces.
  o.items.push_back(
      {"and/or", static_cast<double>(mats()) * kRefBranchesF2PerMat * kF2Um2});
  o.items.push_back(
      {"xor", static_cast<double>(sense_amps()) * kXorF2PerSa * kF2Um2});
  o.items.push_back(
      {"wl act",
       static_cast<double>(lwl_drivers()) * kLwlLatchF2 * kF2Um2});
  // Inter-subarray logic: one full-row-width unit per bank.
  o.items.push_back({"inter-sub", static_cast<double>(geo_.banks_per_chip) *
                                      static_cast<double>(geo_.row_slice_bits) *
                                      kInterLogicF2PerBit * kF2Um2});
  // Inter-bank logic: one unit at the chip IO buffer.
  o.items.push_back({"inter-bank",
                     static_cast<double>(geo_.row_slice_bits) *
                         kInterLogicF2PerBit * kF2Um2});
  return o;
}

OverheadBreakdown AreaModel::acpim_overhead() const {
  OverheadBreakdown o;
  o.baseline_um2 = baseline().total_um2();
  // Digital ALU datapath at every subarray row buffer.
  o.items.push_back({"subarray alus",
                     static_cast<double>(subarrays()) *
                         static_cast<double>(geo_.row_slice_bits) *
                         kAcpimF2PerBit * kF2Um2});
  // Same global units as Pinatubo (results still move between levels).
  o.items.push_back({"inter-sub", static_cast<double>(geo_.banks_per_chip) *
                                      static_cast<double>(geo_.row_slice_bits) *
                                      kInterLogicF2PerBit * kF2Um2});
  o.items.push_back({"inter-bank",
                     static_cast<double>(geo_.row_slice_bits) *
                         kInterLogicF2PerBit * kF2Um2});
  return o;
}

}  // namespace pinatubo::mem
