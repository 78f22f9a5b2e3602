/**
 * @file
 * Binary plan serialization: compile once, deploy anywhere.
 *
 * The paper's premise is that ALL compile-time work — autodiff,
 * sparse-BP pruning, quantization, backend switching, memory planning
 * — happens once, ahead of time, and the target device only executes
 * a frozen plan. This module makes that deployable: the full compiled
 * product of an inference program (graph topology + attrs, execution
 * order, kernel-variant choices, the MemoryPlan, launch geometry,
 * quant params, the packed const pool, and the frozen parameters)
 * round-trips through a versioned binary format, so a server fleet
 * loads bucket plans at startup in milliseconds and the same blob is
 * what an MCU target would flash.
 *
 * Format (little-endian only; the header carries an endian tag and
 * big-endian readers are rejected):
 *
 *   [0..7]    magic 0x89 'P' 'E' 'P' 'L' 'A' 'N' 0x0A
 *   [8..11]   u32 format version (kPlanFormatVersion)
 *   [12..15]  u32 endian tag 0x01020304
 *   [16..23]  u64 total file bytes
 *   [24..27]  u32 section count
 *   then per section: u32 tag, u64 offset, u64 bytes, u64 checksum
 *   then the section payloads.
 *
 * Sections: META (provenance tag, precision, loss id), RPRT
 * (compile-side report fields), GRPH (nodes + attrs + shapes +
 * dtypes), ORDR (execution order), VRNT (kernel variants by name),
 * LNCH (thread count + per-step shard counts), MPLN (value
 * placements, workspace placements, totals, memory timeline), CNST
 * (pre-packed const pool — i8/f16 consts in their deployed byte
 * layout, so load repacks nothing), PRMS (frozen parameter tensors).
 *
 * Every section is covered by an FNV-1a-64 checksum, so any
 * single-byte corruption is rejected with a typed error before any
 * payload is interpreted. Kernels are bound by REGISTRY NAME (op
 * mnemonic + variant string), never by enum value or pointer, which
 * is what makes a plan portable across processes and builds.
 *
 * The loader's contract, asserted via pipelineCounters(): loading a
 * plan performs ZERO planner / scheduler / QuantizePass invocations.
 * Execution of a loaded plan is bit-identical to the freshly-compiled
 * program at any thread count (the launch geometry is part of the
 * plan, and the executor's bind tripwire cross-checks it against this
 * machine's registry).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "ir/graph.h"
#include "runtime/executor.h"

namespace pe {

/** Format version this build writes (and the only one it reads).
 *  v2 (the KV-cache release): MPLN grew the cache-region extent
 *  (MemoryPlan::cacheBytes) after peakLiveBytes, and the storage-tag
 *  range admits Storage::Cache (tag 5). v1 tags 0-4 are unchanged, so
 *  the bump exists to make cross-build loads fail TYPED
 *  (PlanVersionError) instead of misreading the grown section.
 *  v3: RPRT grew the im2col-bound conv count (PassStats::im2colBound)
 *  after int8Bound, so a loaded plan reports every backend counter;
 *  the bump again makes v2 plans fail typed instead of shifting the
 *  quant counters that follow it.
 *  v4: workspace records lost the shared region (36 bytes each), LNCH
 *  lost its derived sharded-step and serialized-by-workspace counts,
 *  META its node count and RPRT its copy of META's precision.
 *  v5: FusedAttention has one input form (Q [L*S,H*Dh], K/V
 *  [L,M,H*Dh], mask [L*S,M], "heads" required) and CacheWrite one
 *  rank ([B,maxSeq,D]; a prefill's cache is [1,maxSeq,D]); RPRT grew
 *  CompileReport::attentionUnfused after fusions. A v4 plan fails
 *  typed (PlanVersionError) instead of in shape inference. */
inline constexpr uint32_t kPlanFormatVersion = 5;

// ---- typed load errors ----------------------------------------------
// Each corruption class gets its own type so deployment code can
// distinguish "wrong file" from "damaged file" from "plan from a
// different build"; all derive from PlanError.

/** Base class of every plan (de)serialization failure. */
class PlanError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The file ends before the declared header/sections do. */
class PlanTruncatedError : public PlanError
{
  public:
    using PlanError::PlanError;
};

/** The leading bytes are not the plan magic (wrong file entirely). */
class PlanBadMagicError : public PlanError
{
  public:
    using PlanError::PlanError;
};

/** The format version (or byte order) is not this build's. */
class PlanVersionError : public PlanError
{
  public:
    using PlanError::PlanError;
};

/** A section's checksum does not match its bytes (bit rot, partial
 *  write, tampering). */
class PlanChecksumError : public PlanError
{
  public:
    using PlanError::PlanError;
};

/** The plan names an op or kernel this build's registry lacks (plan
 *  from a newer build, or a stripped kernel library). */
class PlanUnknownKernelError : public PlanError
{
  public:
    using PlanError::PlanError;
};

/** Structurally invalid payload (bad enum, dangling id, wrong count)
 *  that slipped past the checksums — i.e. a writer bug, not bit rot. */
class PlanFormatError : public PlanError
{
  public:
    using PlanError::PlanError;
};

// ---- the deserialized artifact --------------------------------------

/** Everything a plan file holds, decoded but not yet bound. */
struct PlanData {
    std::string tag;      ///< free-form provenance (plan_tool recipe)
    Precision precision = Precision::F32;
    int lossId = -1;
    Graph graph;
    ProgramArtifact artifact;
    CompileReport report; ///< RPRT fields plus the plan fields read
                          ///< back from the artifact; tier and
                          ///< fallback fields are recorded at bind
    /** Frozen parameter tensors, in graph paramIds() order. */
    std::vector<std::pair<std::string, Tensor>> params;
};

// ---- serialize / deserialize ----------------------------------------

/**
 * Serialize one compiled program to the binary format. Deterministic:
 * the same compiled product yields byte-identical output (no
 * timestamps, pointers, or hash-order iteration), which is what the
 * CI round-trip job's `cmp` determinism check relies on.
 */
std::string serializePlan(const Graph &g, const ProgramArtifact &art,
                          const CompileReport &report,
                          const ParamStore &store,
                          const std::string &tag = "",
                          int loss_id = -1);

/** Decode a plan blob. Throws the typed PlanError subclasses. */
PlanData deserializePlan(const std::string &bytes);

/** Write @p bytes to @p path (binary, atomic-ish: whole buffer). */
void writePlanFile(const std::string &path, const std::string &bytes);

/** Read a whole file; throws PlanError when it cannot be opened. */
std::string readPlanFile(const std::string &path);

/**
 * Load a plan into a runnable program. Fills @p store (created when
 * null) with the plan's frozen parameters, reconstructs the graph and
 * binds an Executor from the artifact — asserting via
 * pipelineCounters() that no planner/scheduler/QuantizePass stage ran
 * (std::logic_error if the contract is ever broken). The returned
 * program's execution is bit-identical to the program that was saved.
 */
std::unique_ptr<InferenceProgram> loadPlan(
    const std::string &path,
    std::shared_ptr<ParamStore> store = nullptr);

/** loadPlan() from an in-memory blob (tests, network transport). */
std::unique_ptr<InferenceProgram> loadPlanFromBytes(
    const std::string &bytes,
    std::shared_ptr<ParamStore> store = nullptr);

// ---- introspection / tooling ----------------------------------------

/** One section-table entry, for `plan_tool inspect` and tests. */
struct PlanSectionInfo {
    std::string tag;       ///< fourcc, e.g. "GRPH"
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint64_t checksum = 0; ///< as recorded in the table
    bool checksumOk = false;
};

/** Parse the header + section table (verifying checksums) without
 *  decoding payloads. Throws the same typed errors as deserialize. */
std::vector<PlanSectionInfo> planSections(const std::string &bytes);

/** The section checksum function (FNV-1a 64). */
uint64_t planChecksum(const void *data, size_t n);

/**
 * Recompute and patch every section checksum in @p blob. This exists
 * for tests and tooling that deliberately tamper with payload bytes
 * (e.g. the unknown-kernel corruption test) and must get PAST the
 * checksum gate; production code never needs it.
 */
void resealPlan(std::string &blob);

} // namespace pe
