#include "crossproc/rules.hh"

#include <algorithm>
#include <sstream>

namespace pmdb
{

const char *
toString(CrossBugType type)
{
    switch (type) {
      case CrossBugType::UnflushedCrossWriterRead:
        return "unflushed-cross-writer-read";
      case CrossBugType::PublishBeforePersist:
        return "publish-before-persist";
      case CrossBugType::EpochOverlap:
        return "cross-writer-epoch-overlap";
    }
    return "unknown";
}

std::string
CrossBug::toString() const
{
    std::ostringstream out;
    out << pmdb::toString(type) << " range=[0x" << std::hex << range.start
        << ",0x" << range.end << ")" << std::dec
        << " owner=w" << ownerWriter << " observer=w" << observerWriter
        << " ticket=" << ticket;
    return out.str();
}

const CrossRuleEngine::LineView *
CrossRuleEngine::findLine(std::uint64_t line) const
{
    const auto it = lines_.find(line);
    return it == lines_.end() ? nullptr : &it->second;
}

CrossRuleEngine::WriterView &
CrossRuleEngine::writerAt(std::uint32_t writer)
{
    return writers_[writer];
}

void
CrossRuleEngine::feed(std::uint32_t writer, const Event &event)
{
    if (event.global == 0)
        return; // not a shared-pool operation
    ++replayed_;
    switch (event.kind) {
      case EventKind::Store:
        onStore(writer, event);
        break;
      case EventKind::Load:
        onLoad(writer, event);
        break;
      case EventKind::Flush:
        onFlush(writer, event);
        break;
      case EventKind::Fence:
        onFence(writer, event);
        break;
      case EventKind::EpochBegin:
        onEpochBegin(writer);
        break;
      case EventKind::EpochEnd:
        onEpochEnd(writer);
        break;
      default:
        break;
    }
}

void
CrossRuleEngine::finish()
{
}

void
CrossRuleEngine::onStore(std::uint32_t writer, const Event &event)
{
    WriterView &view = writerAt(writer);
    view.lastStoreTicket = event.global;
    const AddrRange range = event.range();
    for (std::uint64_t line = cacheLineIndex(range.start);
         line <= cacheLineIndex(range.end - 1); ++line) {
        LineView &state = lines_[line];
        // Rule 3: the line is inside another writer's still-open epoch
        // section — its atomic unit now spans two failure domains.
        if (state.epochWriter != 0 && state.epochWriter != writer) {
            const WriterView &other = writerAt(state.epochWriter);
            if (other.epochDepth > 0 &&
                other.epochInstance == state.epochInstance) {
                bugs_.push_back({CrossBugType::EpochOverlap,
                                 AddrRange::fromSize(line * cacheLineSize,
                                                     cacheLineSize),
                                 state.epochWriter, writer,
                                 event.global});
            }
        }
        state.dirty = true;
        state.dirtyWriter = writer;
        if (view.epochDepth > 0) {
            state.epochWriter = writer;
            state.epochInstance = view.epochInstance;
        }
    }
}

void
CrossRuleEngine::onLoad(std::uint32_t writer, const Event &event)
{
    WriterView &view = writerAt(writer);
    const AddrRange range = event.range();
    for (std::uint64_t line = cacheLineIndex(range.start);
         line <= cacheLineIndex(range.end - 1); ++line) {
        const LineView *state = findLine(line);
        if (!state)
            continue;
        // Rule 1: reading another writer's dirty (never even flushed)
        // data — a crash now would erase the value the reader already
        // acted on.
        if (state->dirty && state->dirtyWriter != writer) {
            bugs_.push_back({CrossBugType::UnflushedCrossWriterRead,
                             AddrRange::fromSize(line * cacheLineSize,
                                                 cacheLineSize),
                             state->dirtyWriter, writer, event.global});
            continue;
        }
        // Rule 2 arming: the value read is flushed but unfenced. Not a
        // bug by itself — the reader may wait for durability — but if
        // the reader fences a dependent store first, the durability
        // order inverts. Record the dependency.
        if (state->pending && state->pendingWriter != writer) {
            view.deps.push_back(
                {line, state->pendingWriter, event.global});
        }
    }
}

void
CrossRuleEngine::onFlush(std::uint32_t writer, const Event &event)
{
    const AddrRange range = event.range();
    for (std::uint64_t line = cacheLineIndex(range.start);
         line <= cacheLineIndex(range.end - 1); ++line) {
        LineView &state = lines_[line];
        if (!state.dirty)
            continue;
        // The CLF queues a writeback of the line's current bytes; the
        // flushing writer's fence will complete it (mirrors
        // SharedPmemPool::flush).
        state.dirty = false;
        state.pending = true;
        state.pendingWriter = writer;
    }
}

void
CrossRuleEngine::onFence(std::uint32_t writer, const Event &event)
{
    // First complete this writer's own pending writebacks — a fence
    // that durable-izes the very line a dependency waits on satisfies
    // that dependency in the same instant, so no bug may fire on it.
    for (auto &[line, state] : lines_) {
        if (state.pending && state.pendingWriter == writer) {
            state.pending = false;
            state.pendingWriter = 0;
            lineDurable(line);
        }
    }
    // Rule 2: the writer fenced while holding a dependency on another
    // writer's still-non-durable data, and it has stored (published)
    // since acquiring that dependency.
    WriterView &view = writerAt(writer);
    std::vector<Dependency> kept;
    kept.reserve(view.deps.size());
    for (const Dependency &dep : view.deps) {
        const LineView *state = findLine(dep.line);
        const bool sourceAtRisk =
            state && (state->dirty || state->pending);
        if (!sourceAtRisk)
            continue; // became durable some other way: satisfied
        if (view.lastStoreTicket > dep.loadTicket) {
            bugs_.push_back({CrossBugType::PublishBeforePersist,
                             AddrRange::fromSize(dep.line * cacheLineSize,
                                                 cacheLineSize),
                             dep.ownerWriter, writer, event.global});
            continue; // reported once; drop the dependency
        }
        kept.push_back(dep); // no publish yet: keep watching
    }
    view.deps.swap(kept);
}

void
CrossRuleEngine::onEpochBegin(std::uint32_t writer)
{
    WriterView &view = writerAt(writer);
    if (view.epochDepth == 0)
        view.epochInstance = ++epochCounter_;
    ++view.epochDepth;
}

void
CrossRuleEngine::onEpochEnd(std::uint32_t writer)
{
    WriterView &view = writerAt(writer);
    if (view.epochDepth > 0)
        --view.epochDepth;
    // Closed epochs leave their touch marks behind; the overlap rule
    // checks the owner's *current* open instance, so stale marks can
    // never fire.
}

void
CrossRuleEngine::lineDurable(std::uint64_t line)
{
    for (auto &[writer, view] : writers_) {
        auto &deps = view.deps;
        deps.erase(std::remove_if(deps.begin(), deps.end(),
                                  [line](const Dependency &dep) {
                                      return dep.line == line;
                                  }),
                   deps.end());
    }
}

} // namespace pmdb
