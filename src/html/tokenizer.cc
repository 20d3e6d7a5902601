#include "html/tokenizer.h"

#include "common/strings.h"
#include "html/entities.h"
#include "html/scan.h"

namespace ntw::html {

std::vector<Token> Tokenizer::TokenizeAll() {
  std::vector<Token> tokens;
  Token token;
  while (Next(&token)) {
    tokens.push_back(std::move(token));
  }
  return tokens;
}

bool Tokenizer::Next(Token* token) {
  if (!raw_text_tag_.empty()) {
    size_t end = scan::FindRawTextEnd(input_, pos_, raw_text_tag_);
    if (end == std::string_view::npos) end = input_.size();
    raw_text_tag_.clear();
    if (end > pos_) {
      token->kind = TokenKind::kText;
      token->data.assign(input_.substr(pos_, end - pos_));
      token->self_closing = false;
      pos_ = end;
      return true;
    }
    // No content before the end tag: tokenize it normally below.
  }

  if (pos_ >= input_.size()) return false;

  if (input_[pos_] != '<') {
    size_t start = pos_;
    pos_ = input_.find('<', pos_);  // memchr under the hood.
    if (pos_ == std::string_view::npos) pos_ = input_.size();
    token->kind = TokenKind::kText;
    token->data.clear();
    AppendDecodedEntities(input_.substr(start, pos_ - start), &token->data);
    token->self_closing = false;
    return true;
  }

  // '<!' introduces a comment or a doctype; one byte test keeps both
  // probes off the ordinary-tag path.
  if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '!') {
    // Comment?
    if (input_.substr(pos_, 4) == "<!--") {
      size_t end = input_.find("-->", pos_ + 4);
      token->kind = TokenKind::kComment;
      token->self_closing = false;
      if (end == std::string_view::npos) {
        token->data.assign(input_.substr(pos_ + 4));
        pos_ = input_.size();
      } else {
        token->data.assign(input_.substr(pos_ + 4, end - pos_ - 4));
        pos_ = end + 3;
      }
      return true;
    }

    // Doctype or other <! ...> declaration.
    size_t end = input_.find('>', pos_);
    token->kind = TokenKind::kDoctype;
    token->self_closing = false;
    if (end == std::string_view::npos) {
      token->data.assign(input_.substr(pos_ + 2));
      pos_ = input_.size();
    } else {
      token->data.assign(input_.substr(pos_ + 2, end - pos_ - 2));
      pos_ = end + 1;
    }
    return true;
  }

  if (LexTag(token)) return true;

  // Stray '<': emit it as text together with the following run.
  size_t start = pos_;
  pos_ = input_.find('<', pos_ + 1);
  if (pos_ == std::string_view::npos) pos_ = input_.size();
  token->kind = TokenKind::kText;
  token->data.clear();
  AppendDecodedEntities(input_.substr(start, pos_ - start), &token->data);
  token->self_closing = false;
  return true;
}

bool Tokenizer::LexTag(Token* token) {
  size_t name_start = pos_ + 1;  // Past '<'.
  bool closing = name_start < input_.size() && input_[name_start] == '/';
  if (closing) ++name_start;
  scan::TagName name = scan::LexTagName(input_, name_start);
  if (name.end == name_start) return false;  // The '<' is text.
  pos_ = name.end;

  token->kind = closing ? TokenKind::kEndTag : TokenKind::kStartTag;
  token->data.assign(input_.substr(name_start, name.end - name_start));
  if (name.fold) {
    for (char& c : token->data) c = AsciiToLower(c);
  }
  token->self_closing = false;

  if (!closing) {
    LexAttributes(token);
  } else {
    // Skip anything up to '>' on an end tag (attributes there are invalid
    // but must not derail the tokenizer).
    pos_ = input_.find('>', pos_);
    if (pos_ == std::string_view::npos) pos_ = input_.size();
  }
  if (pos_ < input_.size() && input_[pos_] == '>') ++pos_;

  if (!closing && !token->self_closing && scan::IsRawTextTag(token->data)) {
    raw_text_tag_ = token->data;
  }
  return true;
}

void Tokenizer::LexAttributes(Token* token) {
  // Overwrite existing attr slots in place and trim at the end: the slot
  // strings keep their capacity from tag to tag, so steady-state attribute
  // lexing does not allocate.
  size_t count = 0;
  for (;;) {
    pos_ = scan::SkipWhitespace(input_, pos_);
    if (pos_ >= input_.size()) break;
    char c = input_[pos_];
    if (c == '>') break;
    if (c == '/') {
      pos_ = scan::SkipWhitespace(input_, pos_ + 1);
      if (pos_ < input_.size() && input_[pos_] == '>') {
        token->self_closing = true;
      }
      break;
    }
    scan::Attribute attr = scan::LexAttribute(input_, pos_);
    if (attr.name_end == pos_) {
      ++pos_;  // A stray '=' where a name belongs: skip it.
      continue;
    }
    if (count == token->attrs.size()) token->attrs.emplace_back();
    auto& [name, value] = token->attrs[count++];
    name.assign(input_.substr(pos_, attr.name_end - pos_));
    if (attr.fold) {
      for (char& ch : name) ch = AsciiToLower(ch);
    }
    value.clear();
    AppendDecodedEntities(
        input_.substr(attr.value_begin, attr.value_end - attr.value_begin),
        &value);
    pos_ = attr.end;
  }
  token->attrs.resize(count);
}

}  // namespace ntw::html
