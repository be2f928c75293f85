// Minimal recursive-descent JSON walker shared by the repo's validators:
// the obs ones (Chrome trace, metrics JSON, incident bundles) and
// bench::ValidateBenchJsonFile. Dependency-free (the image carries no JSON
// library). Handles the general grammar so unknown fields — nested "args"
// objects and the like — are tolerated.
//
// Internal header: the walker is an implementation detail of the
// validators, not a public JSON API.
#pragma once

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace mobirescue::obs::internal {

struct JsonCursor {
  const char* p;
  const char* end;
  std::string error;

  bool Fail(const std::string& message) {
    if (error.empty()) error = message;
    return false;
  }
  void SkipWs() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool Consume(char c) {
    SkipWs();
    if (p >= end || *p != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++p;
    return true;
  }
  bool ConsumeIf(char c) {
    SkipWs();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  char Peek() {
    SkipWs();
    return p < end ? *p : '\0';
  }
  bool ParseString(std::string* out) {
    SkipWs();
    if (p >= end || *p != '"') return Fail("expected string");
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return Fail("bad escape");
        switch (*p) {
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          default: *out += *p;
        }
      } else {
        *out += *p;
      }
      ++p;
    }
    if (p >= end) return Fail("unterminated string");
    ++p;
    return true;
  }
  bool ParseNumber(double* out) {
    SkipWs();
    char* parse_end = nullptr;
    *out = std::strtod(p, &parse_end);
    if (parse_end == p) return Fail("expected number");
    p = parse_end;
    return true;
  }
  bool ConsumeLiteral(const char* lit) {
    SkipWs();
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end - p) < n ||
        std::strncmp(p, lit, n) != 0) {
      return Fail(std::string("expected ") + lit);
    }
    p += n;
    return true;
  }
  /// Skips one complete JSON value of any type.
  bool SkipValue() {
    switch (Peek()) {
      case '{': {
        ++p;
        if (ConsumeIf('}')) return true;
        for (;;) {
          std::string key;
          if (!ParseString(&key)) return false;
          if (!Consume(':')) return false;
          if (!SkipValue()) return false;
          if (ConsumeIf(',')) continue;
          return Consume('}');
        }
      }
      case '[': {
        ++p;
        if (ConsumeIf(']')) return true;
        for (;;) {
          if (!SkipValue()) return false;
          if (ConsumeIf(',')) continue;
          return Consume(']');
        }
      }
      case '"': {
        std::string s;
        return ParseString(&s);
      }
      case 't': return ConsumeLiteral("true");
      case 'f': return ConsumeLiteral("false");
      case 'n': return ConsumeLiteral("null");
      default: {
        double d;
        return ParseNumber(&d);
      }
    }
  }
};

inline bool ReadWholeFile(const std::string& path, std::string* text,
                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

}  // namespace mobirescue::obs::internal
