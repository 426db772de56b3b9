#include "minijson.hpp"

#include <cstdio>
#include <cstdlib>

namespace perfbench::minijson {
namespace {

class Reader {
 public:
  explicit Reader(std::string_view t) : t_(t) {}

  std::optional<Value> document() {
    Value v;
    if (!value(v, 0)) return std::nullopt;
    space();
    if (i_ != t_.size()) return std::nullopt;
    return v;
  }

 private:
  void space() {
    while (i_ < t_.size() &&
           (t_[i_] == ' ' || t_[i_] == '\t' || t_[i_] == '\n' || t_[i_] == '\r')) {
      ++i_;
    }
  }

  bool literal(std::string_view word) {
    if (t_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  bool string(std::string& out) {
    if (i_ >= t_.size() || t_[i_] != '"') return false;
    ++i_;
    while (i_ < t_.size()) {
      const char c = t_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= t_.size()) return false;
      const char e = t_[i_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > t_.size()) return false;
          const unsigned long cp =
              std::strtoul(std::string(t_.substr(i_, 4)).c_str(), nullptr, 16);
          i_ += 4;
          // The program only escapes control bytes this way.
          if (cp > 0x7f) return false;
          out += static_cast<char>(cp);
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool value(Value& v, int depth) {
    if (depth > 32) return false;
    space();
    if (i_ >= t_.size()) return false;
    const char c = t_[i_];
    if (c == '{') {
      v.kind = Value::Kind::Object;
      ++i_;
      space();
      if (i_ < t_.size() && t_[i_] == '}') {
        ++i_;
        return true;
      }
      for (;;) {
        space();
        std::string key;
        if (!string(key)) return false;
        space();
        if (i_ >= t_.size() || t_[i_] != ':') return false;
        ++i_;
        Value member;
        if (!value(member, depth + 1)) return false;
        v.object.emplace_back(std::move(key), std::move(member));
        space();
        if (i_ < t_.size() && t_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < t_.size() && t_[i_] == '}') {
          ++i_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      v.kind = Value::Kind::Array;
      ++i_;
      space();
      if (i_ < t_.size() && t_[i_] == ']') {
        ++i_;
        return true;
      }
      for (;;) {
        Value item;
        if (!value(item, depth + 1)) return false;
        v.array.push_back(std::move(item));
        space();
        if (i_ < t_.size() && t_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < t_.size() && t_[i_] == ']') {
          ++i_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      v.kind = Value::Kind::String;
      return string(v.str);
    }
    if (literal("true")) {
      v.kind = Value::Kind::Bool;
      v.boolean = true;
      return true;
    }
    if (literal("false")) {
      v.kind = Value::Kind::Bool;
      return true;
    }
    if (literal("null")) return true;
    // Number: strtod reads the program's "%.17g" output back bit-exactly.
    const std::string rest(t_.substr(i_, 64));
    char* end = nullptr;
    v.number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    v.kind = Value::Kind::Number;
    i_ += static_cast<std::size_t>(end - rest.c_str());
    return true;
  }

  std::string_view t_;
  std::size_t i_ = 0;
};

}  // namespace

const Value* Value::get(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<Value> parse(std::string_view text) { return Reader(text).document(); }

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace perfbench::minijson
