#include "core/config.hh"

#include <limits>
#include <sstream>
#include <vector>

#include "sim/log.hh"

namespace ariadne
{

namespace
{

std::string
sizeToken(std::size_t bytes)
{
    if (bytes >= 1024 && bytes % 1024 == 0)
        return std::to_string(bytes / 1024) + "K";
    return std::to_string(bytes);
}

/** Parse one size token into @p out; false + @p error on bad input. */
bool
parseSizeToken(const std::string &tok, std::size_t &out,
               std::string &error)
{
    if (tok.empty()) {
        error = "empty size token in Ariadne config";
        return false;
    }
    std::size_t mult = 1;
    std::string digits = tok;
    char last = tok.back();
    if (last == 'K' || last == 'k') {
        mult = 1024;
        digits = tok.substr(0, tok.size() - 1);
    }
    if (digits.empty()) {
        error = "bad size token: " + tok;
        return false;
    }
    for (char c : digits) {
        if (c < '0' || c > '9') {
            error = "bad size token: " + tok;
            return false;
        }
    }
    try {
        auto v = static_cast<std::size_t>(std::stoull(digits));
        if (v > std::numeric_limits<std::size_t>::max() / mult) {
            error = "size token out of range: " + tok;
            return false;
        }
        out = v * mult;
    } catch (const std::out_of_range &) {
        error = "size token out of range: " + tok;
        return false;
    }
    return true;
}

std::vector<std::string>
splitDashes(const std::string &text)
{
    std::vector<std::string> parts;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, '-'))
        parts.push_back(item);
    return parts;
}

} // namespace

std::string
AriadneConfig::toString() const
{
    std::string s = "Ariadne-";
    s += excludeHotList ? "EHL" : "AL";
    for (std::size_t size : {smallSize, mediumSize, largeSize})
        s.append("-").append(sizeToken(size));
    return s;
}

std::optional<AriadneConfig>
AriadneConfig::tryParse(const std::string &text, std::string *error)
{
    auto fail =
        [error](std::string msg) -> std::optional<AriadneConfig> {
        if (error)
            *error = std::move(msg);
        return std::nullopt;
    };

    auto parts = splitDashes(text);
    // Accept an optional leading "Ariadne" token.
    if (!parts.empty() && (parts[0] == "Ariadne" || parts[0] == "ariadne"))
        parts.erase(parts.begin());
    if (parts.size() != 4)
        return fail("Ariadne config must be MODE-SMALL-MEDIUM-LARGE: " +
                    text);

    AriadneConfig cfg;
    if (parts[0] == "EHL")
        cfg.excludeHotList = true;
    else if (parts[0] == "AL")
        cfg.excludeHotList = false;
    else
        return fail("Ariadne config mode must be EHL or AL: " + text);

    std::string token_error;
    if (!parseSizeToken(parts[1], cfg.smallSize, token_error) ||
        !parseSizeToken(parts[2], cfg.mediumSize, token_error) ||
        !parseSizeToken(parts[3], cfg.largeSize, token_error))
        return fail(token_error);

    if (cfg.smallSize == 0 || cfg.mediumSize == 0 || cfg.largeSize == 0)
        return fail("Ariadne chunk sizes must be > 0: " + text);
    if (cfg.smallSize > cfg.mediumSize || cfg.mediumSize > cfg.largeSize)
        return fail("Ariadne chunk sizes must be ordered "
                    "small<=medium<=large: " +
                    text);
    return cfg;
}

AriadneConfig
AriadneConfig::parse(const std::string &text)
{
    std::string error;
    auto cfg = tryParse(text, &error);
    fatalIf(!cfg.has_value(), error);
    return *cfg;
}

} // namespace ariadne
