#include "util/faultplan.hpp"

#include <bit>
#include <limits>
#include <sstream>

#include "util/check.hpp"
#include "util/cli.hpp"

namespace capsp::faultplan {

void Grammar::for_each_item(const std::string& spec,
                            const ItemFn& on_item) const {
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    CAPSP_CHECK_MSG(eq != std::string::npos,
                    name << ": expected key=value, got '" << item << "'");
    on_item(item.substr(0, eq), item.substr(eq + 1));
  }
}

double Grammar::probability(const std::string& key,
                            const std::string& value) const {
  const std::optional<double> p = parse_double(value);
  CAPSP_CHECK_MSG(p && *p >= 0 && *p <= 1,
                  name << ": " << key << "=" << value
                       << " is not a probability in [0, 1]");
  return *p;
}

std::int64_t Grammar::count(const std::string& key,
                            const std::string& value) const {
  const std::optional<std::int64_t> v = parse_int(value);
  CAPSP_CHECK_MSG(v && *v >= 0, name << ": " << key << "=" << value
                                     << " is not a non-negative integer");
  return *v;
}

double Grammar::positive(const std::string& key,
                         const std::string& value) const {
  const std::optional<double> v = parse_double(value);
  CAPSP_CHECK_MSG(v && *v > 0, name << ": " << key << "=" << value
                                    << " must be a positive number");
  return *v;
}

IndexedFault Grammar::indexed(const std::string& key,
                              const std::string& value, const char* form,
                              bool with_seconds) const {
  const auto at = value.find('@');
  const auto colon =
      with_seconds && at != std::string::npos ? value.find(':', at)
                                              : std::string::npos;
  CAPSP_CHECK_MSG(at != std::string::npos &&
                      (!with_seconds || colon != std::string::npos),
                  name << ": " << key << "=" << value << " must be " << form
                       << (with_seconds ? ":seconds" : ""));
  const std::int64_t who = count(key, value.substr(0, at));
  CAPSP_CHECK_MSG(who <= std::numeric_limits<int>::max(),
                  name << ": " << key << "=" << value << " names id " << who
                       << ", past the largest int");
  IndexedFault fault;
  fault.who = static_cast<int>(who);
  fault.index = count(key, value.substr(at + 1, colon - at - 1));
  if (with_seconds) fault.seconds = positive(key, value.substr(colon + 1));
  return fault;
}

std::size_t pick(double u, std::initializer_list<double> probs) {
  double threshold = 0;
  std::size_t index = 0;
  for (const double p : probs) {
    threshold += p;
    if (u < threshold) return index;
    ++index;
  }
  return probs.size();
}

void flip_mantissa_bit(std::span<double> payload, Rng& rng) {
  if (payload.empty()) return;
  const auto index = static_cast<std::size_t>(rng.uniform(payload.size()));
  const auto bit = static_cast<int>(rng.uniform(52));
  auto bits = std::bit_cast<std::uint64_t>(payload[index]);
  bits ^= std::uint64_t{1} << bit;
  payload[index] = std::bit_cast<double>(bits);
}

}  // namespace capsp::faultplan
