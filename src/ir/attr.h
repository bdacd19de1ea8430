/**
 * @file
 * Attribute storage for operations: a small tagged-union map keyed by name.
 */
#ifndef PARTIR_IR_ATTR_H_
#define PARTIR_IR_ATTR_H_

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "src/support/check.h"

namespace partir {

/** Per-dimension lists of mesh-axis names, e.g. [{"B"}, {}, {"M"}]. */
using AxesPerDim = std::vector<std::vector<std::string>>;

/** One attribute value. */
using Attr = std::variant<int64_t, double, std::string, std::vector<int64_t>,
                          std::vector<std::string>, AxesPerDim,
                          std::vector<float>>;

/** Named attribute map attached to each operation. */
class AttrMap {
 public:
  void Set(const std::string& name, Attr value) {
    attrs_[name] = std::move(value);
  }

  bool Has(const std::string& name) const { return attrs_.count(name) > 0; }

  /** The attribute as a T, or null when it is missing or of another type:
   *  the abort-free read for IR that has not been verified yet. */
  template <typename T>
  const T* Find(const std::string& name) const {
    auto it = attrs_.find(name);
    return it == attrs_.end() ? nullptr : std::get_if<T>(&it->second);
  }

  /** The attribute of verified IR; aborts when it is missing or mistyped. */
  template <typename T>
  const T& Get(const std::string& name) const {
    const T* value = Find<T>(name);
    PARTIR_CHECK(value != nullptr)
        << "attribute '" << name << "' is missing or not of the type read";
    return *value;
  }

  template <typename T>
  T GetOr(const std::string& name, T fallback) const {
    return Has(name) ? Get<T>(name) : fallback;
  }

  const std::map<std::string, Attr>& raw() const { return attrs_; }

 private:
  std::map<std::string, Attr> attrs_;
};

}  // namespace partir

#endif  // PARTIR_IR_ATTR_H_
