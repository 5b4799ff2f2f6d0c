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
// and PackedEvent gained the shared-pool global clock field. Version-1
// files are rejected by magic rather than silently misdecoded.
constexpr char traceMagic[8] = {'P', 'M', 'D', 'B',
                                'T', 'R', 'C', '2'};

constexpr char streamMagic[8] = {'P', 'M', 'D', 'B',
                                 'T', 'R', 'S', '2'};

/** Stream record tags. */
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

bool
writeTraceFile(const std::string &path, const std::vector<Event> &events,
               const NameTable &names, std::string *error)
{
    FileHandle file(std::fopen(path.c_str(), "wb"));
    if (!file)
        return fail(error, "cannot open " + path + " for writing");

    if (std::fwrite(traceMagic, sizeof(traceMagic), 1, file.get()) != 1)
        return fail(error, "write failed: magic");

    const auto name_count = static_cast<std::uint32_t>(names.size());
    if (!writeValue(file.get(), name_count))
        return fail(error, "write failed: name count");
    for (std::uint32_t i = 0; i < name_count; ++i) {
        const std::string &name = names.name(i);
        const auto len = static_cast<std::uint32_t>(name.size());
        if (!writeValue(file.get(), len) ||
            (len && std::fwrite(name.data(), 1, len, file.get()) != len)) {
            return fail(error, "write failed: name table");
        }
    }

    const auto event_count = static_cast<std::uint64_t>(events.size());
    if (!writeValue(file.get(), event_count))
        return fail(error, "write failed: event count");
    for (const Event &event : events) {
        const PackedEvent packed = pack(event);
        if (!writeValue(file.get(), packed))
            return fail(error, "write failed: event record");
    }
    return true;
}

bool
readTraceFile(const std::string &path, LoadedTrace *out,
              std::string *error)
{
    FileHandle file(std::fopen(path.c_str(), "rb"));
    if (!file)
        return fail(error, "cannot open " + path);

    char magic[sizeof(traceMagic)];
    if (std::fread(magic, sizeof(magic), 1, file.get()) != 1 ||
        std::memcmp(magic, traceMagic, sizeof(magic)) != 0) {
        return fail(error, path + " is not a PMDB trace (bad magic)");
    }

    std::uint32_t name_count = 0;
    if (!readValue(file.get(), &name_count))
        return fail(error, "truncated trace: name count");
    for (std::uint32_t i = 0; i < name_count; ++i) {
        std::uint32_t len = 0;
        if (!readValue(file.get(), &len) || len > (1u << 20))
            return fail(error, "truncated trace: name length");
        std::string name(len, '\0');
        if (len && std::fread(name.data(), 1, len, file.get()) != len)
            return fail(error, "truncated trace: name bytes");
        out->names.intern(name);
    }

    std::uint64_t event_count = 0;
    if (!readValue(file.get(), &event_count))
        return fail(error, "truncated trace: event count");
    // The count comes from the file: bound it by the bytes that follow
    // before reserving, so a corrupt header cannot demand an unbounded
    // allocation.
    const long here = std::ftell(file.get());
    if (here < 0 || std::fseek(file.get(), 0, SEEK_END) != 0)
        return fail(error, "cannot size trace " + path);
    const long end = std::ftell(file.get());
    if (end < here || std::fseek(file.get(), here, SEEK_SET) != 0)
        return fail(error, "cannot size trace " + path);
    const std::uint64_t room =
        static_cast<std::uint64_t>(end - here) / sizeof(PackedEvent);
    if (event_count > room) {
        return fail(error, "truncated trace: header claims " +
                               std::to_string(event_count) +
                               " events, file holds at most " +
                               std::to_string(room));
    }
    out->events.clear();
    out->events.reserve(event_count);
    for (std::uint64_t i = 0; i < event_count; ++i) {
        PackedEvent packed;
        if (!readValue(file.get(), &packed))
            return fail(error, "truncated trace: event records");
        out->events.push_back(unpack(packed));
    }
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
    if (std::fwrite(streamMagic, sizeof(streamMagic), 1, file_) != 1) {
        close();
        return fail(error, "write failed: stream magic");
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
    const bool ok = std::fflush(file_) == 0;
    std::fclose(file_);
    file_ = nullptr;
    return ok;
}

bool
readTraceStream(const std::string &path, LoadedTrace *out,
                bool *truncated, std::string *error)
{
    if (truncated)
        *truncated = false;
    FileHandle file(std::fopen(path.c_str(), "rb"));
    if (!file)
        return fail(error, "cannot open " + path);

    char magic[sizeof(streamMagic)];
    if (std::fread(magic, sizeof(magic), 1, file.get()) != 1 ||
        std::memcmp(magic, streamMagic, sizeof(magic)) != 0) {
        return fail(error,
                    path + " is not a PMDB stream trace (bad magic)");
    }

    out->events.clear();
    const auto tail = [&] {
        if (truncated)
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
                return fail(error, "corrupt stream: name length");
            std::string name(len, '\0');
            if (len &&
                std::fread(name.data(), 1, len, file.get()) != len) {
                return tail();
            }
            if (id != out->names.size())
                return fail(error, "corrupt stream: name id order");
            out->names.intern(name);
        } else if (tag == eventTag) {
            PackedEvent packed;
            if (!readValue(file.get(), &packed))
                return tail();
            out->events.push_back(unpack(packed));
        } else {
            return fail(error, "corrupt stream: unknown record tag");
        }
    }
}

bool
readAnyTrace(const std::string &path, LoadedTrace *out, bool *truncated,
             std::string *error)
{
    if (truncated)
        *truncated = false;
    char magic[sizeof(traceMagic)] = {};
    {
        FileHandle file(std::fopen(path.c_str(), "rb"));
        if (!file)
            return fail(error, "cannot open " + path);
        if (std::fread(magic, sizeof(magic), 1, file.get()) != 1)
            return fail(error, path + " is not a PMDB trace (too short)");
    }
    if (std::memcmp(magic, traceMagic, sizeof(magic)) == 0)
        return readTraceFile(path, out, error);
    if (std::memcmp(magic, streamMagic, sizeof(magic)) == 0)
        return readTraceStream(path, out, truncated, error);
    return fail(error, path + " is not a PMDB trace (bad magic)");
}

} // namespace pmdb
