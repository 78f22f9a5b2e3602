#include "obs/chrome.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "runtime/executor.h"

namespace pe {

void
jsonEscape(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
}

void
ChromeTraceJson::event(
    const std::string &name, int pid, int64_t tid, int64_t startNs,
    int64_t durNs,
    const std::vector<std::pair<std::string, std::string>> &args)
{
    Ev e;
    e.name = name;
    e.pid = pid;
    e.tid = tid;
    e.startNs = startNs;
    e.durNs = std::max<int64_t>(1, durNs);
    if (!args.empty()) {
        e.argsJson = "{";
        for (size_t i = 0; i < args.size(); ++i) {
            if (i)
                e.argsJson += ",";
            e.argsJson += "\"";
            jsonEscape(e.argsJson, args[i].first);
            e.argsJson += "\":\"";
            jsonEscape(e.argsJson, args[i].second);
            e.argsJson += "\"";
        }
        e.argsJson += "}";
    }
    events_.push_back(std::move(e));
}

void
ChromeTraceJson::threadName(int pid, int64_t tid,
                            const std::string &name)
{
    std::string m = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
                    std::to_string(pid) +
                    ",\"tid\":" + std::to_string(tid) +
                    ",\"args\":{\"name\":\"";
    jsonEscape(m, name);
    m += "\"}}";
    meta_.push_back(std::move(m));
}

void
ChromeTraceJson::processName(int pid, const std::string &name)
{
    std::string m =
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
        std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"";
    jsonEscape(m, name);
    m += "\"}}";
    meta_.push_back(std::move(m));
}

std::string
ChromeTraceJson::json() const
{
    // Normalize so the trace starts near t=0 (absolute steady-clock
    // ns would otherwise put events hours into the viewer timeline).
    int64_t base = 0;
    bool first = true;
    for (const Ev &e : events_) {
        if (first || e.startNs < base) {
            base = e.startNs;
            first = false;
        }
    }
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool any = false;
    for (const std::string &m : meta_) {
        if (any)
            out += ",";
        out += m;
        any = true;
    }
    char buf[128];
    for (const Ev &e : events_) {
        if (any)
            out += ",";
        any = true;
        out += "{\"name\":\"";
        jsonEscape(out, e.name);
        std::snprintf(buf, sizeof(buf),
                      "\",\"ph\":\"X\",\"pid\":%d,\"tid\":%lld,"
                      "\"ts\":%.3f,\"dur\":%.3f",
                      e.pid, static_cast<long long>(e.tid),
                      static_cast<double>(e.startNs - base) / 1e3,
                      static_cast<double>(e.durNs) / 1e3);
        out += buf;
        if (!e.argsJson.empty()) {
            out += ",\"args\":";
            out += e.argsJson;
        }
        out += "}";
    }
    out += "]}";
    return out;
}

bool
ChromeTraceJson::save(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    std::string s = json();
    f.write(s.data(), static_cast<std::streamsize>(s.size()));
    return static_cast<bool>(f);
}

bool
exportChromeTrace(const std::string &path, const Executor &ex,
                  const TraceBuffer &trace)
{
    ChromeTraceJson ct;
    const int pid = 1;
    ct.processName(pid, "executor");
    ct.threadName(pid, 0, "steps");
    for (int w = 0; w < ex.numThreads(); ++w)
        ct.threadName(pid, 100 + w, "worker " + std::to_string(w));

    char buf[64];
    for (const TraceSpan &s : trace.snapshot()) {
        std::string name = s.op;
        if (s.variant && s.variant[0]) {
            name += "/";
            name += s.variant;
        }
        std::vector<std::pair<std::string, std::string>> args;
        args.emplace_back("node", std::to_string(s.node));
        args.emplace_back("run", std::to_string(s.runId));
        if (s.kind == SpanKind::Step) {
            args.emplace_back("shards", std::to_string(s.shards));
            ct.event(name, pid, 0, s.startNs, s.durNs, args);
        } else {
            std::snprintf(buf, sizeof(buf), "[%lld, %lld)",
                          static_cast<long long>(s.begin),
                          static_cast<long long>(s.end));
            args.emplace_back("range", buf);
            if (s.cpuNs >= 0)
                args.emplace_back("cpu_ns", std::to_string(s.cpuNs));
            ct.event(name + " #" + std::to_string(s.shard), pid,
                     100 + s.worker, s.startNs, s.durNs, args);
        }
    }
    return ct.save(path);
}

} // namespace pe
