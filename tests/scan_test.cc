// Pins the byte-class scans of html/scan.h: each Find* returns the first
// byte of its class at or after `from`, checked against a one-line
// reference predicate per class over randomized strings dense in the
// special bytes, at every `from` offset, and by directed probes of every
// class byte and its near misses.

#include <cstdint>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "html/scan.h"

namespace ntw::html {
namespace {

using ScanFn = size_t (*)(std::string_view, size_t);

// ' ' and the control range \t \n \v \f \r (9..13).
bool IsWs(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

struct Class {
  const char* name;
  ScanFn scan;
  bool (*is_member)(char);
};

const Class kClasses[] = {
    {"FindTextSpecial", &scan::FindTextSpecial,
     [](char c) { return c == '<' || c == '&' || IsWs(c); }},
    {"FindWsOrGt", &scan::FindWsOrGt,
     [](char c) { return c == '>' || IsWs(c); }},
    {"FindAttrNameEnd", &scan::FindAttrNameEnd,
     [](char c) { return c == '=' || c == '>' || c == '/' || IsWs(c); }},
};

// The reference scan: the first index at or after `from` whose byte is in
// the class.
size_t Reference(const Class& cls, std::string_view s, size_t from) {
  for (size_t i = from; i < s.size(); ++i) {
    if (cls.is_member(s[i])) return i;
  }
  return std::string_view::npos;
}

// Deterministic 64-bit LCG (MMIX constants): the test must not depend on
// the platform's rand().
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

 private:
  uint64_t state_;
};

std::string RandomString(Lcg& lcg, size_t length) {
  // Dense in the classified bytes so hits land at many offsets; also
  // includes high bytes (0x80..) to catch signedness bugs in the table
  // lookup and control bytes around the 9..13 whitespace range.
  static constexpr char kAlphabet[] =
      "<<&&>>//== \t\n\r\v\f\b\x0e"
      "abcdefgh01234567\x7f\x80\x9f\xc3\xe2\xff";
  std::string s;
  s.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    s.push_back(kAlphabet[lcg.Next() % (sizeof(kAlphabet) - 1)]);
  }
  return s;
}

TEST(ScanTest, EveryScanMatchesItsReferenceOnRandomInputs) {
  Lcg lcg(0x9e3779b97f4a7c15ULL);
  const size_t lengths[] = {0, 1, 3, 15, 16, 17, 31, 32, 33, 64, 100, 129};
  for (size_t length : lengths) {
    for (int rep = 0; rep < 8; ++rep) {
      std::string s = RandomString(lcg, length);
      for (const Class& cls : kClasses) {
        for (size_t from = 0; from <= length + 2; ++from) {
          EXPECT_EQ(cls.scan(s, from), Reference(cls, s, from))
              << cls.name << ", len=" << length << " from=" << from;
        }
      }
    }
  }
}

TEST(ScanTest, ClassMembershipIsExact) {
  // One directed probe per class byte, plus near-miss neighbors of the
  // whitespace range (8 and 14 are NOT whitespace; 9..13 and ' ' are).
  const std::string ws = "\t\n\v\f\r ";
  for (char c : ws) {
    std::string s(20, 'a');
    s[17] = c;
    EXPECT_EQ(scan::FindTextSpecial(s, 0), 17u) << int(c);
    EXPECT_EQ(scan::FindWsOrGt(s, 0), 17u) << int(c);
    EXPECT_EQ(scan::FindAttrNameEnd(s, 0), 17u) << int(c);
  }
  for (char c : {'\x08', '\x0e'}) {
    std::string s(20, 'a');
    s[17] = c;
    EXPECT_EQ(scan::FindTextSpecial(s, 0), std::string_view::npos) << int(c);
    EXPECT_EQ(scan::FindWsOrGt(s, 0), std::string_view::npos) << int(c);
    EXPECT_EQ(scan::FindAttrNameEnd(s, 0), std::string_view::npos) << int(c);
  }
  std::string s = "abc<d&e>f/g=h";
  EXPECT_EQ(scan::FindTextSpecial(s, 0), 3u);
  EXPECT_EQ(scan::FindTextSpecial(s, 4), 5u);
  EXPECT_EQ(scan::FindWsOrGt(s, 0), 7u);
  EXPECT_EQ(scan::FindAttrNameEnd(s, 0), 7u);    // '>' at 7.
  EXPECT_EQ(scan::FindAttrNameEnd(s, 8), 9u);    // '/' at 9.
  EXPECT_EQ(scan::FindAttrNameEnd(s, 10), 11u);  // '=' at 11.
}

TEST(ScanTest, FromBeyondSizeReturnsNpos) {
  std::string s = "<<<<";
  for (const Class& cls : kClasses) {
    EXPECT_EQ(cls.scan(s, 4), std::string_view::npos) << cls.name;
    EXPECT_EQ(cls.scan(s, 100), std::string_view::npos) << cls.name;
    EXPECT_EQ(cls.scan("", 0), std::string_view::npos) << cls.name;
  }
}

}  // namespace
}  // namespace ntw::html
