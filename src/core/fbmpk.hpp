// Umbrella header: include this to use the FBMPK library.
#pragma once

#include "core/autotune.hpp"            // ABMC block-count autotuning
#include "core/plan.hpp"                // MpkPlan — the public API
#include "core/plan_io.hpp"             // plan save/load (offline preprocessing)
#include "gen/kkt.hpp"                  // KKT saddle-point generator
#include "gen/random_sparse.hpp"        // unstructured generators
#include "gen/stencil.hpp"              // structured-grid generators
#include "gen/suite.hpp"                // evaluation-suite generators
#include "kernels/dispatch.hpp"         // runtime row-kernel backends
#include "kernels/fb_simd.hpp"          // fast-mode (dispatched) sweeps
#include "kernels/fbmpk.hpp"            // serial FBMPK kernels
#include "kernels/fbmpk_parallel.hpp"   // stage-scheduled parallel FBMPK
#include "kernels/mpk_baseline.hpp"     // standard MPK baseline
#include "kernels/spmv.hpp"             // SpMV kernels
#include "kernels/symgs.hpp"            // symmetric Gauss-Seidel sweeps
#include "reorder/abmc.hpp"             // ABMC ordering
#include "reorder/level_schedule.hpp"   // level scheduling
#include "reorder/rcm.hpp"              // RCM ordering
#include "sparse/csr.hpp"               // CSR storage
#include "sparse/mm_io.hpp"             // Matrix Market I/O
#include "sparse/packed_tri.hpp"        // band-compressed column indices
#include "sparse/sell.hpp"              // SELL-C-sigma format
#include "sparse/split.hpp"             // triangular split
#include "solvers/solvers.hpp"          // CG/PCG, Chebyshev, multigrid, eigen
