#include "util/json.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace rpr::util {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': {
        v.kind_ = JsonValue::Kind::kObject;
        ++pos_;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          return v;
        }
        while (true) {
          skip_ws();
          if (peek() != '"') fail("expected object key");
          std::string key = parse_string();
          skip_ws();
          expect(':');
          v.object_.insert_or_assign(std::move(key), parse_value());
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.kind_ = JsonValue::Kind::kArray;
        ++pos_;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          return v;
        }
        while (true) {
          v.array_.push_back(parse_value());
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return v;
        }
      }
      case '"':
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return v;
      default:
        v.kind_ = JsonValue::Kind::kNumber;
        v.number_ = parse_number();
        return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs land as two
          // replacement-ish sequences; the repo's artifacts are ASCII).
          if (code < 0x80U) {
            out += static_cast<char>(code);
          } else if (code < 0x800U) {
            out += static_cast<char>(0xC0U | (code >> 6U));
            out += static_cast<char>(0x80U | (code & 0x3FU));
          } else {
            out += static_cast<char>(0xE0U | (code >> 12U));
            out += static_cast<char>(0x80U | ((code >> 6U) & 0x3FU));
            out += static_cast<char>(0x80U | (code & 0x3FU));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool numeric = (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                           c == 'E' || c == '+' || c == '-';
      if (!numeric) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number");
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) throw std::runtime_error("json: not an array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) throw std::runtime_error("json: not an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace rpr::util
