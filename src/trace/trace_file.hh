/**
 * @file
 * On-disk trace format.
 *
 * Recorded event streams can be saved and re-loaded for a
 * record-once / analyze-many workflow: offline replay through any
 * detector, characterization, crash-state scans, minimization, and
 * regression testing against frozen traces.
 *
 * Every trace file has one format (little-endian, version 2): the
 * magic "PMDBTRS2" followed by tagged records in write order,
 *   'N'  u32 id, u32 length, name bytes    an interned name
 *   'E'  packed event (48 bytes)
 * Name ids run 0, 1, 2, ... and a name record precedes every event
 * that references it. There is no count to write up front, so one
 * writer serves whole recordings and record-as-you-go tracing alike,
 * and a file is complete at any record boundary. A
 * crash can cut the file mid-record (a torn tail); readTraceFile
 * recovers the longest valid prefix when its caller accepts that.
 */

#ifndef PMDB_TRACE_TRACE_FILE_HH
#define PMDB_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/sink.hh"

namespace pmdb
{

/** A loaded trace: events plus the interned names they reference. */
struct LoadedTrace
{
    std::vector<Event> events;
    NameTable names;
};

/**
 * Write @p names (which the events' nameIds index), then @p events, to
 * @p path. Returns false and fills @p error on I/O failure, including
 * a failure of the final flush.
 */
bool writeTraceFile(const std::string &path,
                    const std::vector<Event> &events,
                    const NameTable &names,
                    std::string *error = nullptr);

/**
 * Incremental trace writer: events (and the names they reference) are
 * appended one record at a time, and flush() makes everything written
 * so far durable enough for a concurrent or post-crash reader to
 * recover it. This is the body of writeTraceFile and serves any
 * record-as-you-go tracing.
 */
class TraceStreamWriter
{
  public:
    TraceStreamWriter() = default;
    ~TraceStreamWriter();

    TraceStreamWriter(const TraceStreamWriter &) = delete;
    TraceStreamWriter &operator=(const TraceStreamWriter &) = delete;

    /** Create/truncate @p path and write the magic. */
    bool open(const std::string &path, std::string *error = nullptr);

    bool isOpen() const { return file_ != nullptr; }

    /**
     * Append one interned-name record. Ids must arrive in intern order
     * (0, 1, 2, ...) so readers can rebuild the NameTable; appending
     * out of order fails.
     */
    bool appendName(std::uint32_t id, const std::string &name);

    /**
     * Append every name of @p names not yet written. Call before
     * appending an event whose nameId is new.
     */
    bool syncNames(const NameTable &names);

    /** Append one event record. */
    bool append(const Event &event);

    /** Flush buffered records to the OS (record-boundary durability). */
    bool flush();

    /**
     * Flush and close; false if any buffered record failed to reach
     * the OS. open() may be called again afterwards.
     */
    bool close();

    std::uint64_t eventsWritten() const { return events_; }
    std::uint32_t namesWritten() const { return names_; }

  private:
    std::FILE *file_ = nullptr;
    std::uint64_t events_ = 0;
    std::uint32_t names_ = 0;
};

/**
 * The field of @p event no writer could have produced — "kind",
 * "flush kind" or "name id" — or nullptr when the event is valid in a
 * stream that has interned @p names names so far. Trace loading and
 * pmdbd's ring drain both reject events this flags.
 */
const char *invalidEventField(const Event &event, std::size_t names);

/**
 * Load the trace at @p path into @p out, which is reset first. Every
 * event is validated as it is decoded: a kind or flush kind outside
 * its enum, or a nameId that is neither noName nor the id of a name
 * read before it, fails the load with a "corrupt trace" error, as do
 * an unknown record tag and an out-of-order name record.
 *
 * A torn tail (the file ends mid-record) is accepted only when
 * @p truncated is non-null: the longest valid record prefix is
 * returned and *truncated is set. With a null @p truncated it is an
 * error, so a plain load sees the whole file or nothing.
 */
bool readTraceFile(const std::string &path, LoadedTrace *out,
                   bool *truncated = nullptr,
                   std::string *error = nullptr);

} // namespace pmdb

#endif // PMDB_TRACE_TRACE_FILE_HH
