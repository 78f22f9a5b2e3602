/**
 * @file
 * Chrome-trace export: serialize recorded spans as the Trace Event
 * JSON chrome://tracing and Perfetto load directly — complete "X"
 * events with microsecond timestamps, grouped into process/thread
 * tracks via pid/tid and named through "M" metadata events.
 *
 * Two producers share this writer: the executor path (one process,
 * a step track plus one track per pool worker, from a TraceBuffer)
 * and the serving path (ServingEngine::exportChromeTrace — worker
 * tracks plus one lane per request, so a coalesced group renders as
 * N request lanes converging into one shared run span).
 *
 * All timestamps entering the writer are absolute steady-clock ns
 * (traceNowNs); the writer normalizes them against the earliest event
 * so traces start near t=0 regardless of host uptime.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace pe {

class Executor;

/** Append @p s to @p out as JSON string contents: quotes and
 *  backslashes escaped, control characters as unicode escapes. The
 *  one escaper every JSON writer under src/obs/ uses. */
void jsonEscape(std::string &out, const std::string &s);

/** Accumulates Trace Event JSON; save() writes the final object. */
class ChromeTraceJson
{
  public:
    /**
     * Append one complete ("X") event. @p args are extra key/value
     * pairs shown in the UI's detail pane; values are emitted as JSON
     * strings. Zero-duration spans are widened to 1 ns so they stay
     * clickable in the viewer.
     */
    void event(const std::string &name, int pid, int64_t tid,
               int64_t startNs, int64_t durNs,
               const std::vector<std::pair<std::string, std::string>>
                   &args = {});

    /** Name a (pid, tid) track via "M" thread_name metadata. */
    void threadName(int pid, int64_t tid, const std::string &name);

    /** Name a pid via "M" process_name metadata. */
    void processName(int pid, const std::string &name);

    /** The accumulated {"traceEvents":[...]} object. */
    std::string json() const;

    /** Write json() to @p path; false on I/O failure. */
    bool save(const std::string &path) const;

    size_t events() const { return events_.size(); }

  private:
    struct Ev {
        std::string name;
        int pid;
        int64_t tid;
        int64_t startNs; ///< absolute; normalized at json() time
        int64_t durNs;   ///< <0 marks a metadata event
        std::string argsJson;
    };
    std::vector<Ev> events_;
    std::vector<std::string> meta_; ///< pre-rendered "M" events
};

/**
 * Export @p trace (recorded by contexts of @p ex) to @p path: step
 * spans on a "steps" track, shard spans on one track per pool worker
 * (with shard range + CPU ns in args). Returns false on I/O failure.
 */
bool exportChromeTrace(const std::string &path, const Executor &ex,
                       const TraceBuffer &trace);

} // namespace pe
