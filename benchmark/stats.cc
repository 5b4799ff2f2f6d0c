#include "stats.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace pmdb
{
namespace bench
{

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
                            (pos - static_cast<double>(lo));
}

const Json *
Json::get(const std::string &key) const
{
    for (const auto &[name, value] : object) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

namespace
{

/** Strict recursive-descent JSON parser with a nesting limit. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parseDocument(Json *out)
    {
        if (!value(out, 0))
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    static constexpr int maxDepth = 64;

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (text_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    bool
    stringValue(std::string *out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            const char e = text_[pos_++];
            switch (e) {
              case '"': case '\\': case '/': out->push_back(e); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'n': out->push_back('\n'); break;
              case 'r': out->push_back('\r'); break;
              case 't': out->push_back('\t'); break;
              case 'u':
                if (pos_ + 4 > text_.size())
                    return false;
                for (int i = 0; i < 4; ++i) {
                    if (!std::isxdigit(
                            static_cast<unsigned char>(text_[pos_ + i])))
                        return false;
                }
                pos_ += 4;
                out->push_back('?');
                break;
              default:
                return false;
            }
        }
        return false;
    }

    bool
    numberValue(double *out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        const auto digits = [&] {
            const std::size_t from = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            return pos_ > from;
        };
        if (!digits())
            return false;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return false;
        }
        *out = std::strtod(text_.substr(start, pos_ - start).c_str(),
                           nullptr);
        return std::isfinite(*out);
    }

    bool
    value(Json *out, int depth)
    {
        if (depth > maxDepth)
            return false;
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{') {
            out->type = Json::Type::Object;
            ++pos_;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipSpace();
                std::string key;
                if (!stringValue(&key))
                    return false;
                skipSpace();
                if (pos_ >= text_.size() || text_[pos_++] != ':')
                    return false;
                Json item;
                if (!value(&item, depth + 1))
                    return false;
                out->object.emplace_back(std::move(key), std::move(item));
                skipSpace();
                if (pos_ >= text_.size())
                    return false;
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return text_[pos_++] == '}';
            }
        }
        if (c == '[') {
            out->type = Json::Type::Array;
            ++pos_;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                Json item;
                if (!value(&item, depth + 1))
                    return false;
                out->array.push_back(std::move(item));
                skipSpace();
                if (pos_ >= text_.size())
                    return false;
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return text_[pos_++] == ']';
            }
        }
        if (c == '"') {
            out->type = Json::Type::String;
            return stringValue(&out->string);
        }
        if (literal("true") || literal("false")) {
            out->type = Json::Type::Bool;
            return true;
        }
        if (literal("null"))
            return true;
        out->type = Json::Type::Number;
        return numberValue(&out->number);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

bool
loadList(const Json &doc, const char *key, bool with_bound,
         std::vector<MetricSpec> *out)
{
    const Json *list = doc.get(key);
    if (!list || list->type != Json::Type::Array || list->array.empty())
        return false;
    for (const Json &entry : list->array) {
        const Json *name = entry.get("name");
        const Json *unit = entry.get("unit");
        const Json *better = entry.get("better");
        const Json *bound = entry.get("bound");
        if (!name || !unit || !better || name->type != Json::Type::String ||
            unit->type != Json::Type::String ||
            better->type != Json::Type::String ||
            (better->string != "higher" && better->string != "lower") ||
            (with_bound && (!bound || bound->type != Json::Type::Number)))
            return false;
        out->push_back({name->string, unit->string,
                        better->string == "higher",
                        with_bound ? bound->number : 0.0});
    }
    return true;
}

} // namespace

bool
parseJson(const std::string &text, Json *out)
{
    return Parser(text).parseDocument(out);
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    *out = text.str();
    return true;
}

bool
loadSpec(const std::string &path, BenchSpec *out, std::string *error)
{
    std::string text;
    if (!readFile(path, &text)) {
        *error = "cannot open " + path;
        return false;
    }
    Json doc;
    if (!parseJson(text, &doc)) {
        *error = path + ": not valid JSON";
        return false;
    }
    if (!loadList(doc, "end_to_end", true, &out->endToEnd) ||
        !loadList(doc, "per_layer", false, &out->perLayer)) {
        *error = path + ": malformed end_to_end or per_layer list";
        return false;
    }
    return true;
}

} // namespace bench
} // namespace pmdb
