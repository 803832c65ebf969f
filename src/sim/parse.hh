/**
 * @file
 * Strict field parsing for the line-oriented text forms
 * (load::TraceSpec, fault::InjectionPlan).
 *
 * Both forms are whitespace-separated `key=value` tokens. Every value
 * goes through parseField(), a thin std::from_chars wrapper that
 * turns each malformed input into a typed Errc::InvalidArgument
 * instead of an exception or a silently truncated value: the whole
 * token must be consumed, the value must fit the field's type,
 * doubles must be finite, and unsigned fields take no sign.
 */

#ifndef MOLECULE_SIM_PARSE_HH
#define MOLECULE_SIM_PARSE_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "core/status.hh"
#include "sim/time.hh"

namespace molecule::sim {

/** Split "key=value" at the first '='; @retval false without one. */
inline bool
splitKv(std::string_view tok, std::string_view &key,
        std::string_view &val)
{
    const auto eq = tok.find('=');
    if (eq == std::string_view::npos)
        return false;
    key = tok.substr(0, eq);
    val = tok.substr(eq + 1);
    return true;
}

/**
 * Parse @p text as one arithmetic value of type @p T. @p key names
 * the field in the error detail.
 */
template <typename T>
[[nodiscard]] core::Expected<T>
parseField(std::string_view key, std::string_view text)
{
    static_assert(std::is_arithmetic_v<T>);
    const auto fail = [&](const char *why) {
        std::string detail = "'";
        detail.append(key).append("=").append(text).append("': ");
        return core::Error(core::Errc::InvalidArgument, detail + why);
    };
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        return fail("out of range");
    if (ec != std::errc{} || ptr != end)
        return fail("not a number");
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            return fail("not finite");
    }
    return value;
}

/**
 * parseField() into @p out (a SimTime field reads raw nanoseconds);
 * @p out is left untouched on error.
 */
template <typename T>
[[nodiscard]] core::Status
parseInto(T &out, std::string_view key, std::string_view text)
{
    using Raw = std::conditional_t<std::is_same_v<T, SimTime>,
                                   std::int64_t, T>;
    auto value = parseField<Raw>(key, text);
    if (!value.ok())
        return value.error();
    out = T(value.value());
    return {};
}

} // namespace molecule::sim

#endif // MOLECULE_SIM_PARSE_HH
