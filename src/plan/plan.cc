#include "plan/plan.h"

#include <cstring>
#include <fstream>

#include "ir/infer.h"
#include "ir/op.h"
#include "kernels/kernel.h"
#include "runtime/planner.h"

namespace pe {

namespace {

constexpr uint8_t kMagic[8] = {0x89, 'P', 'E', 'P', 'L', 'A', 'N',
                               0x0A};
constexpr uint32_t kEndianTag = 0x01020304;
constexpr size_t kHeaderBytes = 28;      ///< magic..sectionCount
constexpr size_t kTableEntryBytes = 28;  ///< tag+offset+bytes+checksum
constexpr uint32_t kMaxSections = 64;

constexpr uint32_t
fourcc(char a, char b, char c, char d)
{
    return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
           static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24;
}

constexpr uint32_t kSecMeta = fourcc('M', 'E', 'T', 'A');
constexpr uint32_t kSecReport = fourcc('R', 'P', 'R', 'T');
constexpr uint32_t kSecGraph = fourcc('G', 'R', 'P', 'H');
constexpr uint32_t kSecOrder = fourcc('O', 'R', 'D', 'R');
constexpr uint32_t kSecVariants = fourcc('V', 'R', 'N', 'T');
constexpr uint32_t kSecLaunch = fourcc('L', 'N', 'C', 'H');
constexpr uint32_t kSecMemPlan = fourcc('M', 'P', 'L', 'N');
constexpr uint32_t kSecConsts = fourcc('C', 'N', 'S', 'T');
constexpr uint32_t kSecParams = fourcc('P', 'R', 'M', 'S');

/** Every v1 section, in the canonical (deterministic) file order. */
constexpr uint32_t kSectionOrder[] = {
    kSecMeta,    kSecReport, kSecGraph,  kSecOrder, kSecVariants,
    kSecLaunch,  kSecMemPlan, kSecConsts, kSecParams};
constexpr size_t kNumSections =
    sizeof(kSectionOrder) / sizeof(kSectionOrder[0]);

std::string
tagName(uint32_t tag)
{
    std::string s(4, '?');
    s[0] = static_cast<char>(tag & 0xff);
    s[1] = static_cast<char>((tag >> 8) & 0xff);
    s[2] = static_cast<char>((tag >> 16) & 0xff);
    s[3] = static_cast<char>((tag >> 24) & 0xff);
    return s;
}

// ---- primitive writers (host must be little-endian; the header's
// endian tag rejects cross-endian loads) ------------------------------

class ByteWriter
{
  public:
    void
    raw(const void *p, size_t n)
    {
        buf_.append(static_cast<const char *>(p), n);
    }
    void u8(uint8_t v) { raw(&v, 1); }
    void u32(uint32_t v) { raw(&v, 4); }
    void u64(uint64_t v) { raw(&v, 8); }
    void i32(int32_t v) { raw(&v, 4); }
    void i64(int64_t v) { raw(&v, 8); }
    void f64(double v) { raw(&v, 8); }
    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        raw(s.data(), s.size());
    }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Bounds-checked cursor over one (already checksum-verified)
 *  section payload. An overrun here means a writer/format bug, not
 *  bit rot, so it maps to PlanFormatError. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *p, size_t n, const char *what)
        : p_(p), n_(n), what_(what)
    {
    }

    void
    need(size_t k) const
    {
        if (pos_ + k > n_)
            throw PlanFormatError(std::string("plan: ") + what_ +
                                  " section data overrun");
    }
    template <typename T>
    T
    get()
    {
        need(sizeof(T));
        T v;
        std::memcpy(&v, p_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }
    std::string
    str()
    {
        uint32_t len = get<uint32_t>();
        need(len);
        std::string s(reinterpret_cast<const char *>(p_ + pos_), len);
        pos_ += len;
        return s;
    }
    const uint8_t *
    bytes(size_t n)
    {
        need(n);
        const uint8_t *at = p_ + pos_;
        pos_ += n;
        return at;
    }
    void
    finish() const
    {
        if (pos_ != n_)
            throw PlanFormatError(std::string("plan: ") + what_ +
                                  " section has trailing bytes");
    }

  private:
    const uint8_t *p_;
    size_t n_;
    size_t pos_ = 0;
    const char *what_;
};

// ---- attr (de)coding -------------------------------------------------

enum AttrTag : uint8_t {
    kAttrInt = 0,
    kAttrFloat = 1,
    kAttrInts = 2,
    kAttrString = 3,
};

void
writeAttr(ByteWriter &w, const AttrValue &v)
{
    if (std::holds_alternative<int64_t>(v)) {
        w.u8(kAttrInt);
        w.i64(std::get<int64_t>(v));
    } else if (std::holds_alternative<double>(v)) {
        w.u8(kAttrFloat);
        w.f64(std::get<double>(v));
    } else if (std::holds_alternative<std::vector<int64_t>>(v)) {
        w.u8(kAttrInts);
        const auto &xs = std::get<std::vector<int64_t>>(v);
        w.u32(static_cast<uint32_t>(xs.size()));
        for (int64_t x : xs)
            w.i64(x);
    } else {
        w.u8(kAttrString);
        w.str(std::get<std::string>(v));
    }
}

AttrValue
readAttr(ByteReader &r)
{
    uint8_t tag = r.get<uint8_t>();
    switch (tag) {
      case kAttrInt:
        return r.get<int64_t>();
      case kAttrFloat:
        return r.get<double>();
      case kAttrInts: {
        uint32_t count = r.get<uint32_t>();
        // Bounds BEFORE allocation: a crafted count must become a
        // typed format error, not a 32 GB bad_alloc.
        r.need(static_cast<size_t>(count) * 8);
        std::vector<int64_t> xs(count);
        for (uint32_t i = 0; i < count; ++i)
            xs[i] = r.get<int64_t>();
        return xs;
      }
      case kAttrString:
        return r.str();
    }
    throw PlanFormatError("plan: bad attr tag " + std::to_string(tag));
}

// ---- section payload builders ----------------------------------------

std::string
buildMeta(const std::string &tag, Precision precision, int loss_id)
{
    ByteWriter w;
    w.str(tag);
    w.u8(static_cast<uint8_t>(precision));
    w.i32(loss_id);
    return w.take();
}

std::string
buildReport(const CompileReport &r)
{
    ByteWriter w;
    w.i32(r.forwardNodes);
    w.i32(r.backwardNodes);
    w.i32(r.trainableTensors);
    w.i32(r.prunedNodes);
    w.i32(r.fusions);
    w.i32(r.attentionUnfused);
    w.i32(r.folded);
    w.f64(r.flopsPerStep);
    w.i64(r.arenaBytesNoReorder);
    w.i32(r.backend.nodesRemoved);
    w.i32(r.backend.nodesFused);
    w.i32(r.backend.nodesFolded);
    w.i32(r.backend.winogradBound);
    w.i32(r.backend.blockedBound);
    w.i32(r.backend.int8Bound);
    w.i32(r.backend.im2colBound);
    w.i32(r.quant.quantizedOps);
    w.i32(r.quant.quantizeNodes);
    w.i32(r.quant.dequantizeNodes);
    w.i32(r.quant.requantFolded);
    w.i32(r.quant.prequantizedWeights);
    return w.take();
}

std::string
buildGraph(const Graph &g)
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(g.numNodes()));
    for (int id = 0; id < g.numNodes(); ++id) {
        const Node &n = g.node(id);
        w.str(opName(n.op));
        w.str(n.name);
        w.u8(n.trainable ? 1 : 0);
        w.u8(static_cast<uint8_t>(n.dtype));
        w.u32(static_cast<uint32_t>(n.inputs.size()));
        for (int in : n.inputs)
            w.i32(in);
        w.u32(static_cast<uint32_t>(n.shape.size()));
        for (int64_t d : n.shape)
            w.i64(d);
        w.u32(static_cast<uint32_t>(n.attrs.items().size()));
        for (const auto &[k, v] : n.attrs.items()) {
            w.str(k);
            writeAttr(w, v);
        }
    }
    w.u32(static_cast<uint32_t>(g.outputs().size()));
    for (int o : g.outputs())
        w.i32(o);
    return w.take();
}

std::string
buildOrder(const std::vector<int> &order)
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(order.size()));
    for (int id : order)
        w.i32(id);
    return w.take();
}

std::string
buildVariants(const std::vector<std::string> &variants)
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(variants.size()));
    for (const std::string &v : variants)
        w.str(v);
    return w.take();
}

std::string
buildLaunch(const ProgramArtifact &art)
{
    ByteWriter w;
    w.i32(art.numThreads);
    w.u32(static_cast<uint32_t>(art.shardsPerStep.size()));
    for (int s : art.shardsPerStep)
        w.i32(s);
    return w.take();
}

std::string
buildMemPlan(const MemoryPlan &p)
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(p.values.size()));
    for (const ValuePlacement &v : p.values) {
        w.u8(static_cast<uint8_t>(v.storage));
        w.u8(static_cast<uint8_t>(v.dtype));
        w.i64(v.offset);
        w.i64(v.bytes);
        w.i32(v.defPos);
        w.i32(v.lastUsePos);
    }
    w.u32(static_cast<uint32_t>(p.workspaces.size()));
    for (const WorkspacePlacement &ws : p.workspaces) {
        w.i32(ws.node);
        w.i32(ws.stepPos);
        w.i32(ws.shards);
        w.i64(ws.bytesPerShard);
        w.i64(ws.shardStride);
        w.i64(ws.offset);
    }
    w.i64(p.arenaBytes);
    w.i64(p.workspaceBytes);
    w.i64(p.paramBytes);
    w.i64(p.constBytes);
    w.i64(p.inputBytes);
    for (int64_t b : p.arenaValueBytesByDtype)
        w.i64(b);
    for (int64_t b : p.constBytesByDtype)
        w.i64(b);
    w.u32(static_cast<uint32_t>(p.liveBytesAtStep.size()));
    for (int64_t b : p.liveBytesAtStep)
        w.i64(b);
    w.i64(p.peakLiveBytes);
    w.i64(p.cacheBytes); // format v2: per-context cache region
    return w.take();
}

std::string
buildConsts(const Graph &g, const std::vector<Tensor> &pool)
{
    ByteWriter w;
    uint32_t count = 0;
    for (int id = 0; id < g.numNodes(); ++id) {
        if (g.node(id).op == OpKind::Const)
            ++count;
    }
    w.u32(count);
    for (int id = 0; id < g.numNodes(); ++id) {
        const Node &n = g.node(id);
        if (n.op != OpKind::Const)
            continue;
        int64_t nbytes = numel(n.shape) * dtypeSize(n.dtype);
        w.i32(id);
        w.u64(static_cast<uint64_t>(nbytes));
        // The pool tensor is the executor's packed buffer: for f32 a
        // value tensor of the node's shape, otherwise raw i8/f16
        // bytes in word-padded storage — either way the first nbytes
        // are exactly the deployed layout.
        w.raw(pool[id].data(), static_cast<size_t>(nbytes));
    }
    return w.take();
}

std::string
buildParams(const Graph &g, const ParamStore &store)
{
    ByteWriter w;
    std::vector<int> ids = g.paramIds();
    w.u32(static_cast<uint32_t>(ids.size()));
    for (int id : ids) {
        const Node &n = g.node(id);
        const Tensor &t = store.get(n.name);
        w.str(n.name);
        w.u32(static_cast<uint32_t>(t.shape().size()));
        for (int64_t d : t.shape())
            w.i64(d);
        w.raw(t.data(), sizeof(float) * static_cast<size_t>(t.size()));
    }
    return w.take();
}

// ---- header / section-table plumbing ---------------------------------

struct RawSection {
    uint32_t tag = 0;
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint64_t checksum = 0;
};

/**
 * Validate the fixed header and read the section table. Shared by the
 * full loader, planSections() and resealPlan(); @p verify_checksums
 * is off for resealing (its whole point is fixing them).
 */
std::vector<RawSection>
readTable(const std::string &blob, bool verify_checksums)
{
    if (blob.size() < kHeaderBytes)
        throw PlanTruncatedError(
            "plan: file shorter than the fixed header");
    const uint8_t *p = reinterpret_cast<const uint8_t *>(blob.data());
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0)
        throw PlanBadMagicError("plan: bad magic (not a plan file)");
    uint32_t version, endian, section_count;
    uint64_t file_bytes;
    std::memcpy(&version, p + 8, 4);
    std::memcpy(&endian, p + 12, 4);
    std::memcpy(&file_bytes, p + 16, 8);
    std::memcpy(&section_count, p + 24, 4);
    if (endian != kEndianTag)
        throw PlanVersionError(
            "plan: byte-order mismatch (plan written on a "
            "different-endian machine)");
    if (version != kPlanFormatVersion)
        throw PlanVersionError(
            "plan: format version " + std::to_string(version) +
            " unsupported (this build reads version " +
            std::to_string(kPlanFormatVersion) + ")");
    if (file_bytes != blob.size())
        throw PlanTruncatedError(
            "plan: file is " + std::to_string(blob.size()) +
            " bytes but the header declares " +
            std::to_string(file_bytes));
    if (section_count == 0 || section_count > kMaxSections)
        throw PlanFormatError("plan: implausible section count " +
                              std::to_string(section_count));
    size_t table_end =
        kHeaderBytes + static_cast<size_t>(section_count) *
                           kTableEntryBytes;
    if (table_end > blob.size())
        throw PlanTruncatedError(
            "plan: file ends inside the section table");

    // The writer tiles the payloads back to back after the table; a
    // loader that accepted any in-bounds offset would let a damaged
    // table entry point an empty or tiny section at matching bytes
    // elsewhere and still pass its checksum.
    uint64_t cursor = table_end;
    std::vector<RawSection> sections(section_count);
    for (uint32_t i = 0; i < section_count; ++i) {
        const uint8_t *e = p + kHeaderBytes + i * kTableEntryBytes;
        RawSection &s = sections[i];
        std::memcpy(&s.tag, e, 4);
        std::memcpy(&s.offset, e + 4, 8);
        std::memcpy(&s.bytes, e + 12, 8);
        std::memcpy(&s.checksum, e + 20, 8);
        bool known = false;
        for (uint32_t t : kSectionOrder)
            known = known || t == s.tag;
        if (!known)
            throw PlanFormatError("plan: unknown section tag '" +
                                  tagName(s.tag) + "'");
        if (s.offset < table_end || s.offset > blob.size() ||
            s.bytes > blob.size() - s.offset)
            throw PlanTruncatedError(
                "plan: section '" + tagName(s.tag) +
                "' extends past the end of the file");
        if (s.offset != cursor)
            throw PlanFormatError("plan: section '" + tagName(s.tag) +
                                  "' does not follow the previous one");
        cursor += s.bytes;
        if (verify_checksums &&
            planChecksum(p + s.offset,
                         static_cast<size_t>(s.bytes)) != s.checksum)
            throw PlanChecksumError("plan: checksum mismatch in "
                                    "section '" +
                                    tagName(s.tag) + "'");
    }
    if (cursor != blob.size())
        throw PlanFormatError("plan: bytes after the last section");
    return sections;
}

const RawSection &
findSection(const std::vector<RawSection> &sections, uint32_t tag)
{
    const RawSection *found = nullptr;
    for (const RawSection &s : sections) {
        if (s.tag == tag) {
            if (found)
                throw PlanFormatError("plan: duplicate section '" +
                                      tagName(tag) + "'");
            found = &s;
        }
    }
    if (!found)
        throw PlanFormatError("plan: missing section '" +
                              tagName(tag) + "'");
    return *found;
}

ByteReader
sectionReader(const std::string &blob,
              const std::vector<RawSection> &sections, uint32_t tag,
              const char *what)
{
    const RawSection &s = findSection(sections, tag);
    return ByteReader(
        reinterpret_cast<const uint8_t *>(blob.data()) + s.offset,
        static_cast<size_t>(s.bytes), what);
}

} // namespace

uint64_t
planChecksum(const void *data, size_t n)
{
    // FNV-1a 64: tiny, dependency-free, byte-order independent, and
    // plenty to catch bit rot / truncation (not a cryptographic MAC).
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint64_t h = 14695981039346656037ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::string
serializePlan(const Graph &g, const ProgramArtifact &art,
              const CompileReport &report, const ParamStore &store,
              const std::string &tag, int loss_id)
{
    if (static_cast<int>(art.constPool.size()) != g.numNodes() ||
        static_cast<int>(art.variants.size()) != g.numNodes() ||
        static_cast<int>(art.plan.values.size()) != g.numNodes())
        throw PlanFormatError(
            "serializePlan: artifact does not cover the graph");

    std::vector<std::pair<uint32_t, std::string>> sections;
    sections.reserve(kNumSections);
    sections.emplace_back(
        kSecMeta,
        buildMeta(tag, report.precision, loss_id));
    sections.emplace_back(kSecReport, buildReport(report));
    sections.emplace_back(kSecGraph, buildGraph(g));
    sections.emplace_back(kSecOrder, buildOrder(art.order));
    sections.emplace_back(kSecVariants, buildVariants(art.variants));
    sections.emplace_back(kSecLaunch, buildLaunch(art));
    sections.emplace_back(kSecMemPlan, buildMemPlan(art.plan));
    sections.emplace_back(kSecConsts, buildConsts(g, art.constPool));
    sections.emplace_back(kSecParams, buildParams(g, store));

    uint64_t offset = kHeaderBytes + sections.size() * kTableEntryBytes;
    uint64_t total = offset;
    for (const auto &[t, payload] : sections)
        total += payload.size();

    ByteWriter w;
    w.raw(kMagic, sizeof(kMagic));
    w.u32(kPlanFormatVersion);
    w.u32(kEndianTag);
    w.u64(total);
    w.u32(static_cast<uint32_t>(sections.size()));
    for (const auto &[t, payload] : sections) {
        w.u32(t);
        w.u64(offset);
        w.u64(payload.size());
        w.u64(planChecksum(payload.data(), payload.size()));
        offset += payload.size();
    }
    for (const auto &[t, payload] : sections)
        w.raw(payload.data(), payload.size());
    return w.take();
}

namespace {

PlanData
deserializeImpl(const std::string &bytes)
{
    std::vector<RawSection> sections = readTable(bytes, true);
    for (uint32_t tag : kSectionOrder)
        findSection(sections, tag); // presence + uniqueness

    PlanData pd;

    { // META
        ByteReader r = sectionReader(bytes, sections, kSecMeta, "META");
        pd.tag = r.str();
        uint8_t prec = r.get<uint8_t>();
        if (prec > static_cast<uint8_t>(Precision::Int8))
            throw PlanFormatError("plan: bad precision tag");
        pd.precision = static_cast<Precision>(prec);
        pd.lossId = r.get<int32_t>();
        r.finish();
    }

    { // RPRT
        ByteReader r =
            sectionReader(bytes, sections, kSecReport, "RPRT");
        CompileReport &rep = pd.report;
        rep.precision = pd.precision;
        rep.forwardNodes = r.get<int32_t>();
        rep.backwardNodes = r.get<int32_t>();
        rep.trainableTensors = r.get<int32_t>();
        rep.prunedNodes = r.get<int32_t>();
        rep.fusions = r.get<int32_t>();
        rep.attentionUnfused = r.get<int32_t>();
        rep.folded = r.get<int32_t>();
        rep.flopsPerStep = r.get<double>();
        rep.arenaBytesNoReorder = r.get<int64_t>();
        rep.backend.nodesRemoved = r.get<int32_t>();
        rep.backend.nodesFused = r.get<int32_t>();
        rep.backend.nodesFolded = r.get<int32_t>();
        rep.backend.winogradBound = r.get<int32_t>();
        rep.backend.blockedBound = r.get<int32_t>();
        rep.backend.int8Bound = r.get<int32_t>();
        rep.backend.im2colBound = r.get<int32_t>();
        rep.quant.quantizedOps = r.get<int32_t>();
        rep.quant.quantizeNodes = r.get<int32_t>();
        rep.quant.dequantizeNodes = r.get<int32_t>();
        rep.quant.requantFolded = r.get<int32_t>();
        rep.quant.prequantizedWeights = r.get<int32_t>();
        r.finish();
    }

    { // GRPH — reconstruct via addRaw: NO shape/dtype inference, and
      // compiled graphs may hold forward input references, so input
      // ids are validated only after the whole table exists.
        ByteReader r =
            sectionReader(bytes, sections, kSecGraph, "GRPH");
        uint32_t num_nodes = r.get<uint32_t>();
        for (uint32_t i = 0; i < num_nodes; ++i) {
            Node n;
            std::string op = r.str();
            try {
                n.op = opFromName(op);
            } catch (const std::exception &) {
                throw PlanUnknownKernelError(
                    "plan: op '" + op +
                    "' is not in this build's catalogue");
            }
            n.name = r.str();
            n.trainable = r.get<uint8_t>() != 0;
            uint8_t dt = r.get<uint8_t>();
            if (dt > static_cast<uint8_t>(DType::I8))
                throw PlanFormatError("plan: bad dtype tag");
            n.dtype = static_cast<DType>(dt);
            uint32_t num_inputs = r.get<uint32_t>();
            r.need(static_cast<size_t>(num_inputs) * 4);
            n.inputs.reserve(num_inputs);
            for (uint32_t j = 0; j < num_inputs; ++j)
                n.inputs.push_back(r.get<int32_t>());
            uint32_t rank = r.get<uint32_t>();
            r.need(static_cast<size_t>(rank) * 8);
            n.shape.reserve(rank);
            for (uint32_t j = 0; j < rank; ++j)
                n.shape.push_back(r.get<int64_t>());
            uint32_t num_attrs = r.get<uint32_t>();
            for (uint32_t j = 0; j < num_attrs; ++j) {
                std::string key = r.str();
                n.attrs.set(key, readAttr(r));
            }
            pd.graph.addRaw(std::move(n));
        }
        uint32_t num_outputs = r.get<uint32_t>();
        for (uint32_t i = 0; i < num_outputs; ++i) {
            int o = r.get<int32_t>();
            if (o < 0 || o >= pd.graph.numNodes())
                throw PlanFormatError("plan: output id out of range");
            pd.graph.markOutput(o);
        }
        r.finish();
        for (int id = 0; id < pd.graph.numNodes(); ++id) {
            for (int in : pd.graph.node(id).inputs) {
                if (in < 0 || in >= pd.graph.numNodes())
                    throw PlanFormatError(
                        "plan: input id out of range");
            }
        }
        // Shapes and dtypes are DERIVED facts (Graph::add infers
        // both); a plan gets no say in them. Re-infer now that the
        // whole table exists (compiled graphs hold forward input
        // refs, so this could not run per-node above) and reject any
        // divergence — a crafted shape/dtype is how a checksummed-
        // but-hostile file would steer kernels past their buffers.
        for (int id = 0; id < pd.graph.numNodes(); ++id) {
            const Node &n = pd.graph.node(id);
            if (n.dtype != inferDType(n.op, n.attrs))
                throw PlanFormatError(
                    "plan: node dtype does not match inference");
            Shape want;
            try {
                want = inferShape(pd.graph, n.op, n.inputs, n.attrs,
                                  n.name);
            } catch (const std::exception &e) {
                throw PlanFormatError(
                    std::string("plan: shape inference rejected a "
                                "node: ") +
                    e.what());
            }
            if (want != n.shape)
                throw PlanFormatError(
                    "plan: node shape does not match inference");
        }
    }

    { // ORDR
        ByteReader r =
            sectionReader(bytes, sections, kSecOrder, "ORDR");
        uint32_t count = r.get<uint32_t>();
        if (count != static_cast<uint32_t>(pd.graph.numNodes()))
            throw PlanFormatError(
                "plan: order does not cover the graph");
        std::vector<char> seen(pd.graph.numNodes(), 0);
        pd.artifact.order.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
            int id = r.get<int32_t>();
            if (id < 0 || id >= pd.graph.numNodes() || seen[id])
                throw PlanFormatError(
                    "plan: order is not a permutation of node ids");
            seen[id] = 1;
            pd.artifact.order.push_back(id);
        }
        r.finish();
    }

    { // VRNT
        ByteReader r =
            sectionReader(bytes, sections, kSecVariants, "VRNT");
        uint32_t count = r.get<uint32_t>();
        if (count != static_cast<uint32_t>(pd.graph.numNodes()))
            throw PlanFormatError(
                "plan: variants do not cover the graph");
        pd.artifact.variants.reserve(count);
        for (uint32_t i = 0; i < count; ++i)
            pd.artifact.variants.push_back(r.str());
        r.finish();
    }

    { // LNCH
        ByteReader r =
            sectionReader(bytes, sections, kSecLaunch, "LNCH");
        pd.artifact.numThreads = r.get<int32_t>();
        uint32_t count = r.get<uint32_t>();
        r.need(static_cast<size_t>(count) * 4);
        pd.artifact.shardsPerStep.reserve(count);
        for (uint32_t i = 0; i < count; ++i)
            pd.artifact.shardsPerStep.push_back(r.get<int32_t>());
        r.finish();
        if (pd.artifact.numThreads < 1 ||
            pd.artifact.numThreads > 4096)
            throw PlanFormatError("plan: implausible thread count");
    }

    { // MPLN
        ByteReader r =
            sectionReader(bytes, sections, kSecMemPlan, "MPLN");
        MemoryPlan &p = pd.artifact.plan;
        uint32_t num_values = r.get<uint32_t>();
        if (num_values != static_cast<uint32_t>(pd.graph.numNodes()))
            throw PlanFormatError(
                "plan: memory plan does not cover the graph");
        p.values.resize(num_values);
        for (ValuePlacement &v : p.values) {
            uint8_t st = r.get<uint8_t>();
            if (st > static_cast<uint8_t>(Storage::Cache))
                throw PlanFormatError("plan: bad storage tag");
            v.storage = static_cast<Storage>(st);
            uint8_t dt = r.get<uint8_t>();
            if (dt > static_cast<uint8_t>(DType::I8))
                throw PlanFormatError("plan: bad placement dtype");
            v.dtype = static_cast<DType>(dt);
            v.offset = r.get<int64_t>();
            v.bytes = r.get<int64_t>();
            v.defPos = r.get<int32_t>();
            v.lastUsePos = r.get<int32_t>();
        }
        uint32_t num_ws = r.get<uint32_t>();
        r.need(static_cast<size_t>(num_ws) * 36); // 3x i32 + 3x i64
        p.workspaces.resize(num_ws);
        for (WorkspacePlacement &ws : p.workspaces) {
            ws.node = r.get<int32_t>();
            ws.stepPos = r.get<int32_t>();
            ws.shards = r.get<int32_t>();
            ws.bytesPerShard = r.get<int64_t>();
            ws.shardStride = r.get<int64_t>();
            ws.offset = r.get<int64_t>();
            if (ws.shards < 1)
                throw PlanFormatError(
                    "plan: workspace shard count < 1");
        }
        p.arenaBytes = r.get<int64_t>();
        p.workspaceBytes = r.get<int64_t>();
        p.paramBytes = r.get<int64_t>();
        p.constBytes = r.get<int64_t>();
        p.inputBytes = r.get<int64_t>();
        for (int64_t &b : p.arenaValueBytesByDtype)
            b = r.get<int64_t>();
        for (int64_t &b : p.constBytesByDtype)
            b = r.get<int64_t>();
        uint32_t timeline = r.get<uint32_t>();
        r.need(static_cast<size_t>(timeline) * 8 + 16); // + peak + cache
        p.liveBytesAtStep.resize(timeline);
        for (int64_t &b : p.liveBytesAtStep)
            b = r.get<int64_t>();
        p.peakLiveBytes = r.get<int64_t>();
        p.cacheBytes = r.get<int64_t>(); // format v2
        r.finish();
        if (p.arenaBytes < 0)
            throw PlanFormatError("plan: negative arena extent");
        if (p.cacheBytes < 0)
            throw PlanFormatError("plan: negative cache extent");
    }

    { // CNST — pre-packed pool, no repacking on load.
        ByteReader r =
            sectionReader(bytes, sections, kSecConsts, "CNST");
        pd.artifact.constPool.resize(pd.graph.numNodes());
        uint32_t count = r.get<uint32_t>();
        for (uint32_t i = 0; i < count; ++i) {
            int id = r.get<int32_t>();
            if (id < 0 || id >= pd.graph.numNodes() ||
                pd.graph.node(id).op != OpKind::Const)
                throw PlanFormatError(
                    "plan: const entry names a non-Const node");
            const Node &n = pd.graph.node(id);
            uint64_t nbytes = r.get<uint64_t>();
            int64_t want = numel(n.shape) * dtypeSize(n.dtype);
            if (nbytes != static_cast<uint64_t>(want))
                throw PlanFormatError(
                    "plan: const byte count does not match its "
                    "shape/dtype");
            const uint8_t *data = r.bytes(static_cast<size_t>(nbytes));
            Tensor t = n.dtype == DType::F32
                           ? Tensor(n.shape)
                           : Tensor({(want + 3) / 4});
            std::memcpy(t.data(), data, static_cast<size_t>(nbytes));
            pd.artifact.constPool[id] = std::move(t);
        }
        r.finish();
        for (int id = 0; id < pd.graph.numNodes(); ++id) {
            if (pd.graph.node(id).op == OpKind::Const &&
                !pd.artifact.constPool[id].defined())
                throw PlanFormatError(
                    "plan: const pool is missing a Const node");
        }
    }

    { // PRMS
        ByteReader r =
            sectionReader(bytes, sections, kSecParams, "PRMS");
        uint32_t count = r.get<uint32_t>();
        // Bounds before allocation, like every other section: the
        // entry count must equal the graph's Param population (full
        // coverage is required anyway — see `covered` below).
        if (count != pd.graph.paramIds().size())
            throw PlanFormatError(
                "plan: param section does not cover the graph's "
                "Param nodes");
        pd.params.reserve(count);
        // Track which Param NODES were covered: entry-count equality
        // alone would let a duplicated name shadow a missing one,
        // which materialize() would then silently zero-fill — a
        // wrong-output load instead of a typed rejection.
        std::vector<char> covered(pd.graph.numNodes(), 0);
        for (uint32_t i = 0; i < count; ++i) {
            std::string name = r.str();
            int pid = pd.graph.findParam(name);
            if (pid < 0)
                throw PlanFormatError(
                    "plan: param '" + name +
                    "' is not in the graph");
            if (covered[pid])
                throw PlanFormatError("plan: duplicate param '" +
                                      name + "'");
            covered[pid] = 1;
            uint32_t rank = r.get<uint32_t>();
            Shape shape;
            shape.reserve(rank);
            for (uint32_t j = 0; j < rank; ++j)
                shape.push_back(r.get<int64_t>());
            if (shape != pd.graph.node(pid).shape)
                throw PlanFormatError(
                    "plan: param '" + name +
                    "' shape does not match the graph");
            Tensor t(shape);
            const uint8_t *data = r.bytes(
                sizeof(float) * static_cast<size_t>(t.size()));
            std::memcpy(t.data(), data,
                        sizeof(float) * static_cast<size_t>(t.size()));
            pd.params.emplace_back(std::move(name), std::move(t));
        }
        r.finish();
        // count == paramIds().size() and `covered` rejected
        // duplicates, so every Param node is accounted for.
    }

    // Kernel availability: plans bind by registry name, so reject a
    // plan that needs kernels this build does not have — distinctly,
    // instead of failing deep inside the executor.
    for (int id : pd.artifact.order) {
        const Node &n = pd.graph.node(id);
        if (isSourceOp(n.op))
            continue;
        const std::string &v = pd.artifact.variants[id];
        if (!hasKernelVariant(n.op, v) && !hasKernelVariant(n.op, ""))
            throw PlanUnknownKernelError(
                std::string("plan: no kernel registered for '") +
                opName(n.op) + "/" + v + "'");
    }

    pd.report.recordPlan(pd.artifact);
    return pd;
}

} // namespace

PlanData
deserializePlan(const std::string &bytes)
{
    try {
        return deserializeImpl(bytes);
    } catch (const std::bad_alloc &) {
        // Checksums admit any CRAFTED file, and shapes/counts in one
        // can demand absurd allocations; keep the error typed instead
        // of letting bad_alloc escape the PlanError contract.
        throw PlanFormatError(
            "plan: payload demands an implausible allocation");
    }
}

void
writePlanFile(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        throw PlanError("plan: cannot open '" + path +
                        "' for writing");
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!f)
        throw PlanError("plan: short write to '" + path + "'");
}

std::string
readPlanFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw PlanError("plan: cannot open '" + path + "'");
    std::string bytes((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

std::unique_ptr<InferenceProgram>
loadPlanFromBytes(const std::string &bytes,
                  std::shared_ptr<ParamStore> store)
{
    // The zero-recompile contract, enforced: nothing between here and
    // the return may invoke planMemory/planLaunches/reorderForMemory/
    // quantizePass. (The snapshot is process-global, so concurrent
    // compilation on another thread would false-positive — load plans
    // before spinning up compile work, as ServingEngine does.)
    PipelineCounters before = pipelineCounters();

    PlanData pd = deserializePlan(bytes);
    if (!store)
        store = std::make_shared<ParamStore>();
    for (auto &[name, t] : pd.params)
        store->set(name, std::move(t));

    std::unique_ptr<InferenceProgram> prog;
    try {
        prog = std::make_unique<InferenceProgram>(
            CompiledGraph{std::move(pd.graph), pd.lossId,
                          std::move(pd.artifact), std::move(pd.report)},
            store);
    } catch (const PlanError &) {
        throw;
    } catch (const std::exception &e) {
        throw PlanFormatError(std::string("plan: bind failed: ") +
                              e.what());
    }

    if (pipelineCounters() != before)
        throw std::logic_error(
            "loadPlan: a compile pipeline stage ran during load — "
            "the zero-recompile contract is broken");
    return prog;
}

std::unique_ptr<InferenceProgram>
loadPlan(const std::string &path, std::shared_ptr<ParamStore> store)
{
    return loadPlanFromBytes(readPlanFile(path), std::move(store));
}

std::vector<PlanSectionInfo>
planSections(const std::string &bytes)
{
    std::vector<RawSection> sections = readTable(bytes, false);
    std::vector<PlanSectionInfo> out;
    out.reserve(sections.size());
    const uint8_t *p = reinterpret_cast<const uint8_t *>(bytes.data());
    for (const RawSection &s : sections) {
        PlanSectionInfo info;
        info.tag = tagName(s.tag);
        info.offset = s.offset;
        info.bytes = s.bytes;
        info.checksum = s.checksum;
        info.checksumOk =
            planChecksum(p + s.offset, static_cast<size_t>(s.bytes)) ==
            s.checksum;
        out.push_back(info);
    }
    return out;
}

void
resealPlan(std::string &blob)
{
    std::vector<RawSection> sections = readTable(blob, false);
    uint8_t *p = reinterpret_cast<uint8_t *>(&blob[0]);
    for (size_t i = 0; i < sections.size(); ++i) {
        uint64_t sum = planChecksum(
            p + sections[i].offset,
            static_cast<size_t>(sections[i].bytes));
        std::memcpy(p + kHeaderBytes + i * kTableEntryBytes + 20, &sum,
                    8);
    }
}

// Defined here (not engine.cc) so the engine keeps zero dependency on
// the plan format; the declaration lives on InferenceProgram because
// saving IS a program-level operation.
void
InferenceProgram::savePlan(const std::string &path,
                           const std::string &tag) const
{
    writePlanFile(path,
                  serializePlan(graph_, executor_->exportArtifact(),
                                report_, *store_, tag));
}

} // namespace pe
