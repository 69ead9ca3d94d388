#pragma once
// Environment-variable knobs shared by benches and examples.
//
//   MPS_SCALE    — workload scale factor (default 1.0 for SpMV/SpAdd suites,
//                  benches pass their own default for heavier kernels)
//   MPS_THREADS  — host worker threads for the virtual GPU (default: hw)
//   MPS_ITERS    — timing repetitions override
//
// Robustness knobs (docs/robustness.md):
//   MPS_FAULT_ALLOC_N     — fail the Nth device allocation per Device
//   MPS_FAULT_BYTE_LIMIT  — fail the allocation crossing this byte count
//   MPS_FAULT_CAPACITY    — cap device capacity in bytes
//   MPS_FAULT_BITFLIP_ALLOC / _OFFSET / _MASK / _EVERY — silent bit-flip
//                           injection into live device buffers
//   MPS_STRICT_VALIDATE   — 1: structurally validate matrices at kernel
//                           entry (InvalidInputError on violation);
//                           2: additionally reject non-finite values
//   MPS_INTEGRITY_CHECK   — 1: buffer checksums + kernel postcondition
//                           guards (IntegrityError on violation)
//
// Serving knobs (docs/serving.md; read by serve::EngineConfig::from_env
// for any field left zero):
//   MPS_SERVE_THREADS       — engine worker threads (default 4)
//   MPS_SERVE_QUEUE_CAP     — submission-queue capacity (default 1024)
//   MPS_SERVE_BATCH_WINDOW  — max same-matrix SpMV requests coalesced
//                             into one spmm dispatch (default 8)
//   MPS_SERVE_PLAN_CACHE_MB — plan-cache capacity in MiB (default 64)
//
// Autotuning knob (docs/autotuning.md; read by mps::autotune):
//   MPS_AUTOTUNE        — 1: adaptive format/kernel selection for SpMV in
//                         the serving engine, examples and fig5 (default 0;
//                         results stay bitwise-identical to the static
//                         merge path — only the dispatch choice changes)

// Chaos knobs (docs/robustness.md; read by vgpu::ChaosSchedule::from_env):
//   MPS_CHAOS_SCRIPT — explicit fault timeline (device loss, stragglers,
//                      alloc failures, bit flips) in the chaos
//                      mini-language; see src/vgpu/chaos.hpp
//   MPS_CHAOS_SEED   — deterministic pseudo-random schedule (0 = off)
//
// Fault/chaos knobs, the serving-engine knobs (MPS_SERVE_*), and the
// durability knobs (MPS_DURABLE_*) parse STRICTLY via the *_checked
// variants below: a malformed, overflowing, or out-of-range value
// throws InvalidInputError naming the variable instead of silently
// falling back.  Bench-tuning knobs (MPS_SCALE, MPS_THREADS, ...) stay
// lenient.

#include <climits>
#include <string>

namespace mps::util {

double env_double(const char* name, double fallback);
long long env_int(const char* name, long long fallback);
/// Like env_int but auto-detects the base ("0x80" parses as hex).
long long env_int_auto(const char* name, long long fallback);
std::string env_string(const char* name, const std::string& fallback);

// Strict variants: unset (or empty) returns `fallback` untouched, but a
// set-and-malformed value — non-numeric trailing junk, out-of-range for
// the type (ERANGE), or outside [min, max] — throws InvalidInputError
// whose message names the environment variable.  Fault-injection and
// chaos configuration goes through these; a typo'd fault schedule must
// never silently run fault-free.
long long env_int_checked(const char* name, long long fallback,
                          long long min = 0, long long max = LLONG_MAX);
/// Strict + base auto-detection ("0x80" parses as hex).
long long env_int_auto_checked(const char* name, long long fallback,
                               long long min = 0, long long max = LLONG_MAX);
double env_double_checked(const char* name, double fallback, double min = 0.0);
/// Strict path knob: unset returns "", but SET-and-empty (e.g.
/// `MPS_TRACE_OUT= mps_serve ...`) throws InvalidInputError — an empty
/// output path is always a shell quoting accident, and silently
/// disabling the artifact the caller asked for is the worst response.
std::string env_path_checked(const char* name);

}  // namespace mps::util
