// The benches' one RunReport writer, driven by ICC_JSON.
#pragma once

namespace icc::sim {
class RunReport;
}  // namespace icc::sim

namespace icc::exp {

/// Write `report` as JSON to the path ICC_JSON names, whatever its suffix,
/// and announce it on stdout; do nothing when ICC_JSON is unset. A report
/// that cannot be written exits 1 naming the path: a campaign asked for a
/// file must not end as a success without it.
void write_report_from_env(const sim::RunReport& report);

}  // namespace icc::exp
