#pragma once
// Tiny self-contained JSON value type with parser and printer.
//
// Used by the synthesis service protocol (job requests, result frames).

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace emorphic {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps keys ordered so serialization is deterministic.
using JsonObject = std::map<std::string, Json>;

class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON value: null, bool, number (double), string, array or object.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}                    // NOLINT
  Json(double d) : type_(Type::kNumber), number_(d) {}              // NOLINT
  Json(int i) : type_(Type::kNumber), number_(i) {}                 // NOLINT
  Json(std::int64_t i)                                              // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(std::uint64_t i)                                             // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}         // NOLINT
  Json(JsonArray a) : type_(Type::kArray) {                         // NOLINT
    array_ = std::make_shared<JsonArray>(std::move(a));
  }
  Json(JsonObject o) : type_(Type::kObject) {                       // NOLINT
    object_ = std::make_shared<JsonObject>(std::move(o));
  }

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const { return type_; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  std::int64_t as_int() const { return static_cast<std::int64_t>(number_); }
  const std::string& as_string() const { return string_; }
  JsonArray& as_array() { return *array_; }
  const JsonArray& as_array() const { return *array_; }
  JsonObject& as_object() { return *object_; }
  const JsonObject& as_object() const { return *object_; }

  /// Object member access; throws if not an object or key missing.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  Json& operator[](const std::string& key);
  void push_back(Json value);

  /// Serialize; `indent` < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws JsonParseError on bad input.
  static Json parse(const std::string& text);

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

}  // namespace emorphic
