/// \file workloads.hpp
/// \brief The three perfbench workloads: an input generator that
///        writes each workload's inputs and known answers from a seed,
///        and the runner that drives the flow over those inputs.
///
/// See perfbench/README.md for why each workload exists and which
/// layer each per-layer metric isolates.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/// Writes netlists and a manifest.json of known answers into \p dir.
void generate_cec(std::uint64_t seed, const std::string& dir);
void generate_atpg(std::uint64_t seed, const std::string& dir);
void generate_bmc(std::uint64_t seed, const std::string& dir);

/// Runs the flow over the inputs in \p dir for at least \p seconds.
/// Untraced runs report the end-to-end metrics; traced runs report the
/// per-layer metrics and write their spans to \p spans_path.
Report run_cec(const std::string& dir, double seconds, bool trace,
               const std::string& spans_path);
Report run_atpg_serve(const std::string& dir, double seconds, bool trace,
                      const std::string& spans_path);
Report run_bmc_sweep(const std::string& dir, double seconds, bool trace,
                     const std::string& spans_path);

}  // namespace perfbench
