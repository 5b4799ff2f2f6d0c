#include "modelcheck/state_cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>
#include <vector>

namespace pmdb
{

namespace
{

constexpr char cacheMagic[8] = {'P', 'M', 'D', 'B', 'M', 'C', 'C', '1'};

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

bool
StateCache::load(const std::string &path, std::string *error)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
        if (errno == ENOENT)
            return true; // first run: nothing persisted yet
        return fail(error, path + ": " + std::strerror(errno));
    }

    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return fail(error, path + ": " + std::strerror(errno));

    char magic[8];
    std::uint64_t count = 0;
    if (std::fread(magic, 1, sizeof(magic), file) != sizeof(magic) ||
        std::memcmp(magic, cacheMagic, sizeof(magic)) != 0) {
        std::fclose(file);
        return fail(error, path + ": not a modelcheck state cache");
    }
    if (std::fread(&count, sizeof(count), 1, file) != 1) {
        std::fclose(file);
        return fail(error, path + ": truncated header");
    }
    // Bound count by the file before using it: 16 + count * 8 wraps
    // for a hostile count and could match the real size.
    const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
    if (size < 16 || (size - 16) % sizeof(std::uint64_t) != 0 ||
        count != (size - 16) / sizeof(std::uint64_t)) {
        std::fclose(file);
        return fail(error, path + ": size disagrees with state count");
    }

    std::vector<std::uint64_t> hashes(count);
    if (count > 0 &&
        std::fread(hashes.data(), sizeof(std::uint64_t), count, file) !=
            count) {
        std::fclose(file);
        return fail(error, path + ": truncated state list");
    }
    std::fclose(file);

    for (std::uint64_t hash : hashes)
        states_.insert(hash);
    return true;
}

bool
StateCache::save(const std::string &path, std::string *error) const
{
    const std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (!file)
        return fail(error, tmp + ": " + std::strerror(errno));

    const std::uint64_t count = states_.size();
    bool ok =
        std::fwrite(cacheMagic, 1, sizeof(cacheMagic), file) ==
            sizeof(cacheMagic) &&
        std::fwrite(&count, sizeof(count), 1, file) == 1;
    for (auto it = states_.begin(); ok && it != states_.end(); ++it) {
        const std::uint64_t hash = *it;
        ok = std::fwrite(&hash, sizeof(hash), 1, file) == 1;
    }
    ok = std::fclose(file) == 0 && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        return fail(error, tmp + ": write failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return fail(error, path + ": " + std::strerror(errno));
    }
    return true;
}

} // namespace pmdb
