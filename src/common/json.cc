#include "common/json.hh"

#include <cmath>
#include <cstdio>

namespace pmdb
{

JsonWriter &
JsonWriter::value(std::string_view text)
{
    separate();
    out_ += '"';
    // Copy runs of plain bytes whole; only the rare escape is per byte.
    std::size_t plain = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\')
            continue;
        out_.append(text.substr(plain, i - plain));
        plain = i + 1;
        if (c == '"' || c == '\\') {
            out_ += '\\';
            out_ += c;
        } else if (c == '\n') {
            out_ += "\\n";
        } else if (c == '\t') {
            out_ += "\\t";
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
        }
    }
    out_.append(text.substr(plain));
    out_ += '"';
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double number, int decimals)
{
    if (!std::isfinite(number))
        return raw("null");
    char buf[64];
    if (decimals < 0)
        std::snprintf(buf, sizeof(buf), "%g", number);
    else
        std::snprintf(buf, sizeof(buf), "%.*f", decimals, number);
    return raw(buf);
}

} // namespace pmdb
