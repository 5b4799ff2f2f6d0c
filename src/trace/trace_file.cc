#include "trace/trace_file.hh"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

namespace pmdb
{

namespace
{

// Version 2: EventKind gained Load (renumbering the packed kind byte)
// and PackedEvent gained the shared-pool global clock field. Older
// files, of either the retired count-headed batch layout or version 1,
// are rejected by magic rather than silently misdecoded.
constexpr char traceMagic[8] = {'P', 'M', 'D', 'B',
                                'T', 'R', 'S', '2'};

/** Record tags. */
constexpr char nameTag = 'N';
constexpr char eventTag = 'E';

/** Fixed-width on-disk event layout. */
struct PackedEvent
{
    std::uint8_t kind;
    std::uint8_t flushKind;
    std::int32_t thread;
    std::int32_t strand;
    std::uint32_t nameId;
    std::uint64_t addr;
    std::uint32_t size;
    std::uint64_t seq;
    std::uint64_t global;
};

struct FileCloser
{
    void
    operator()(std::FILE *file) const
    {
        if (file)
            std::fclose(file);
    }
};

using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

template <typename T>
bool
writeValue(std::FILE *file, const T &value)
{
    return std::fwrite(&value, sizeof(T), 1, file) == 1;
}

template <typename T>
bool
readValue(std::FILE *file, T *value)
{
    return std::fread(value, sizeof(T), 1, file) == 1;
}

PackedEvent
pack(const Event &event)
{
    PackedEvent packed;
    std::memset(&packed, 0, sizeof(packed)); // no stack bytes on disk
    packed.kind = static_cast<std::uint8_t>(event.kind);
    packed.flushKind = static_cast<std::uint8_t>(event.flushKind);
    packed.thread = event.thread;
    packed.strand = event.strand;
    packed.nameId = event.nameId;
    packed.addr = event.addr;
    packed.size = event.size;
    packed.seq = event.seq;
    packed.global = event.global;
    return packed;
}

Event
unpack(const PackedEvent &packed)
{
    Event event;
    event.kind = static_cast<EventKind>(packed.kind);
    event.flushKind = static_cast<FlushKind>(packed.flushKind);
    event.thread = packed.thread;
    event.strand = packed.strand;
    event.nameId = packed.nameId;
    event.addr = packed.addr;
    event.size = packed.size;
    event.seq = packed.seq;
    event.global = packed.global;
    return event;
}

} // namespace

const char *
invalidEventField(const Event &event, std::size_t names)
{
    if (event.kind > EventKind::ProgramEnd)
        return "kind";
    if (event.flushKind > FlushKind::Clflushopt)
        return "flush kind";
    if (event.nameId != noName && event.nameId >= names)
        return "name id";
    return nullptr;
}

bool
writeTraceFile(const std::string &path, const std::vector<Event> &events,
               const NameTable &names, std::string *error)
{
    TraceStreamWriter writer;
    if (!writer.open(path, error))
        return false;
    bool ok = writer.syncNames(names);
    for (std::size_t i = 0; ok && i < events.size(); ++i)
        ok = writer.append(events[i]);
    if (!writer.close() || !ok)
        return fail(error, "write failed: " + path);
    return true;
}

TraceStreamWriter::~TraceStreamWriter()
{
    close();
}

bool
TraceStreamWriter::open(const std::string &path, std::string *error)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return fail(error, "cannot open " + path + " for writing");
    events_ = 0;
    names_ = 0;
    if (std::fwrite(traceMagic, sizeof(traceMagic), 1, file_) != 1) {
        close();
        return fail(error, "write failed: magic");
    }
    return true;
}

bool
TraceStreamWriter::appendName(std::uint32_t id, const std::string &name)
{
    if (!file_ || id != names_)
        return false;
    const auto len = static_cast<std::uint32_t>(name.size());
    if (std::fputc(nameTag, file_) == EOF || !writeValue(file_, id) ||
        !writeValue(file_, len) ||
        (len && std::fwrite(name.data(), 1, len, file_) != len)) {
        return false;
    }
    ++names_;
    return true;
}

bool
TraceStreamWriter::syncNames(const NameTable &names)
{
    while (names_ < names.size()) {
        if (!appendName(names_, names.name(names_)))
            return false;
    }
    return true;
}

bool
TraceStreamWriter::append(const Event &event)
{
    if (!file_)
        return false;
    const PackedEvent packed = pack(event);
    if (std::fputc(eventTag, file_) == EOF ||
        !writeValue(file_, packed)) {
        return false;
    }
    ++events_;
    return true;
}

bool
TraceStreamWriter::flush()
{
    return file_ && std::fflush(file_) == 0;
}

bool
TraceStreamWriter::close()
{
    if (!file_)
        return true;
    const bool flushed = std::fflush(file_) == 0;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    return flushed && closed;
}

bool
readTraceFile(const std::string &path, LoadedTrace *out, bool *truncated,
              std::string *error)
{
    *out = LoadedTrace();
    if (truncated)
        *truncated = false;
    FileHandle file(std::fopen(path.c_str(), "rb"));
    if (!file)
        return fail(error, "cannot open " + path);

    char magic[sizeof(traceMagic)];
    if (std::fread(magic, sizeof(magic), 1, file.get()) != 1 ||
        std::memcmp(magic, traceMagic, sizeof(magic)) != 0) {
        return fail(error, path + " is not a PMDB trace (bad magic; "
                                  "traces of older formats must be "
                                  "re-recorded)");
    }

    // The file ends mid-record: the writer was cut off.
    const auto tail = [&] {
        if (!truncated)
            return fail(error, "truncated trace: " + path +
                                   " ends mid-record");
        *truncated = true;
        return true;
    };
    for (;;) {
        const int tag = std::fgetc(file.get());
        if (tag == EOF)
            return true; // clean end: file stops at a record boundary
        if (tag == nameTag) {
            std::uint32_t id = 0;
            std::uint32_t len = 0;
            if (!readValue(file.get(), &id) ||
                !readValue(file.get(), &len)) {
                return tail();
            }
            if (len > (1u << 20))
                return fail(error, "corrupt trace: name length");
            std::string name(len, '\0');
            if (len &&
                std::fread(name.data(), 1, len, file.get()) != len) {
                return tail();
            }
            // intern() returns an older id for a repeated name.
            if (id != out->names.size() || out->names.intern(name) != id)
                return fail(error, "corrupt trace: name record " +
                                       std::to_string(id) +
                                       " out of order");
        } else if (tag == eventTag) {
            PackedEvent packed;
            if (!readValue(file.get(), &packed))
                return tail();
            const Event event = unpack(packed);
            if (const char *field =
                    invalidEventField(event, out->names.size())) {
                return fail(error, "corrupt trace: event " +
                                       std::to_string(out->events.size()) +
                                       " has an invalid " + field);
            }
            out->events.push_back(event);
        } else {
            return fail(error, "corrupt trace: unknown record tag");
        }
    }
}

} // namespace pmdb
