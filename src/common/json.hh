/**
 * @file
 * The JSON writer every report, tool and bench row goes through, in
 * the house layout `{"key": value, "list": [1, 2]}`. It holds the only
 * JSON string escaper in the tree.
 */

#ifndef PMDB_COMMON_JSON_HH
#define PMDB_COMMON_JSON_HH

#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace pmdb
{

/**
 * Streaming JSON builder. Separators are implicit: every key or value
 * but a container's first is preceded by ", ", and a key is followed
 * by ": ". Keeping keys inside objects and begin/end balanced is the
 * caller's job.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** Start an object member; the next call writes its value. */
    JsonWriter &
    key(std::string_view name)
    {
        value(name);
        out_ += ": ";
        needComma_ = false;
        return *this;
    }

    /**
     * A string. `"` and `\` get a backslash, newline and tab their
     * short forms, and every other byte below 0x20 becomes `\u00XX`:
     * no raw control byte reaches the output.
     */
    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(bool flag) { return raw(flag ? "true" : "false"); }

    template <typename T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    JsonWriter &value(T number) { return raw(std::to_string(number)); }

    /**
     * printf "%.<decimals>f", or "%g" (the iostream default) when
     * @p decimals is negative; non-finite values are written as null.
     */
    JsonWriter &value(double number, int decimals = -1);

    /** Splice an already-rendered JSON value. */
    JsonWriter &
    raw(std::string_view json)
    {
        separate();
        out_ += json;
        needComma_ = true;
        return *this;
    }

    /** key(@p name), then value(@p args...). */
    template <typename... Args>
    JsonWriter &
    field(std::string_view name, Args &&...args)
    {
        return key(name).value(std::forward<Args>(args)...);
    }

    const std::string &str() const { return out_; }

  private:
    void
    separate()
    {
        if (needComma_)
            out_ += ", ";
    }

    JsonWriter &
    open(char bracket)
    {
        separate();
        out_ += bracket;
        needComma_ = false;
        return *this;
    }

    JsonWriter &
    close(char bracket)
    {
        out_ += bracket;
        needComma_ = true;
        return *this;
    }

    std::string out_;
    bool needComma_ = false;
};

} // namespace pmdb

#endif // PMDB_COMMON_JSON_HH
