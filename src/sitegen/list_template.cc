#include "sitegen/list_template.h"

#include <array>

namespace ntw::sitegen {
namespace {

constexpr std::array<const char*, 8> kClassWords = {
    "results", "listing", "dealerlinks", "content",
    "items",   "records", "storelist",   "data"};

constexpr std::array<const char*, 6> kPrimaryTags = {"u",    "b", "strong",
                                                     "span", "em", "a"};

/// Emits one auxiliary field's text, registering it when it is a target.
void EmitField(PageBuilder* b, html::Node* parent, const ListRecord& record,
               size_t i) {
  if (record.field_types.size() > i && !record.field_types[i].empty()) {
    b->TargetText(parent, record.fields[i], record.field_types[i]);
  } else {
    b->Text(parent, record.fields[i]);
  }
}

bool FieldPresent(const ListRecord& record, size_t i) {
  if (i >= record.fields.size()) return false;
  if (i < record.present.size() && !record.present[i]) return false;
  return true;
}

/// The class of auxiliary field i's element: "f1", "f2", ...
std::string FieldClass(size_t i) {
  std::string cls = "f";
  cls.append(std::to_string(i));
  return cls;
}

}  // namespace

ListRecord ListRecord::Of(std::vector<std::string> fields) {
  ListRecord record;
  record.field_types.assign(fields.size(), "");
  record.present.assign(fields.size(), true);
  record.fields = std::move(fields);
  return record;
}

std::string RandomCssClass(Rng* rng) {
  std::string name = kClassWords[rng->NextBounded(kClassWords.size())];
  if (rng->NextBernoulli(0.3)) {
    name += std::to_string(rng->NextInRange(1, 9));
  }
  return name;
}

ListTemplate ListTemplate::Random(Rng* rng, size_t num_fields) {
  ListTemplate t;
  switch (rng->NextBounded(5)) {
    case 0:
      t.layout_ = ListLayout::kTableRowPerRecord;
      break;
    case 1:
      t.layout_ = ListLayout::kTableCellPerRecord;
      break;
    case 2:
      t.layout_ = ListLayout::kDivBlocks;
      break;
    case 3:
      t.layout_ = ListLayout::kListItems;
      break;
    default:
      t.layout_ = ListLayout::kHeadingBlocks;
      break;
  }
  t.num_fields_ = num_fields;
  t.container_class_ = RandomCssClass(rng);
  t.record_class_ = RandomCssClass(rng);
  t.primary_tag_ = kPrimaryTags[rng->NextBounded(kPrimaryTags.size())];
  t.primary_in_anchor_ =
      t.primary_tag_ != "a" && rng->NextBernoulli(0.25);
  t.header_row_ = rng->NextBernoulli(0.4);
  t.trailing_link_ = rng->NextBernoulli(0.35);
  t.field_label_spans_ = rng->NextBernoulli(0.4);
  t.bullet_ = rng->NextBernoulli(0.5) ? " - " : " | ";
  return t;
}

void ListTemplate::EmitPrimary(PageBuilder* b, html::Node* parent,
                               const ListRecord& record) const {
  html::Node* holder = parent;
  if (primary_in_anchor_) {
    holder = b->El(holder, "a", {{"href", "#detail"}});
  }
  holder = b->El(holder, primary_tag_,
                 primary_tag_ == "a"
                     ? std::initializer_list<
                           std::pair<const char*, std::string>>{
                           {"href", "#store"}}
                     : std::initializer_list<
                           std::pair<const char*, std::string>>{});
  if (!record.field_types.empty() && !record.field_types[0].empty()) {
    b->TargetText(holder, record.fields[0], record.field_types[0]);
  } else {
    b->Text(holder, record.fields[0]);
  }
}

void ListTemplate::Render(PageBuilder* b, html::Node* parent,
                          const std::vector<ListRecord>& records) const {
  switch (layout_) {
    case ListLayout::kTableRowPerRecord:
      RenderTableRows(b, parent, records);
      return;
    case ListLayout::kTableCellPerRecord:
      RenderTableCells(b, parent, records);
      return;
    case ListLayout::kDivBlocks:
      RenderDivBlocks(b, parent, records);
      return;
    case ListLayout::kListItems:
      RenderListItems(b, parent, records);
      return;
    case ListLayout::kHeadingBlocks:
      RenderHeadingBlocks(b, parent, records);
      return;
  }
}

void ListTemplate::RenderTableRows(
    PageBuilder* b, html::Node* parent,
    const std::vector<ListRecord>& records) const {
  html::Node* table =
      b->El(parent, "table", {{"class", container_class_}});
  if (header_row_) {
    html::Node* tr = b->El(table, "tr", {{"class", "hdr"}});
    for (size_t i = 0; i < num_fields_; ++i) {
      b->Text(b->El(tr, "th"), "Column " + std::to_string(i + 1));
    }
  }
  for (const ListRecord& record : records) {
    html::Node* tr = b->El(table, "tr", {{"class", record_class_}});
    html::Node* first_td = b->El(tr, "td");
    EmitPrimary(b, first_td, record);
    for (size_t i = 1; i < num_fields_ && i < record.fields.size(); ++i) {
      html::Node* td = b->El(tr, "td");
      if (FieldPresent(record, i)) EmitField(b, td, record, i);
    }
    if (trailing_link_) {
      b->Text(b->El(b->El(tr, "td"), "a", {{"href", "#map"}}),
              "Map & Directions");
    }
  }
}

void ListTemplate::RenderTableCells(
    PageBuilder* b, html::Node* parent,
    const std::vector<ListRecord>& records) const {
  html::Node* div = b->El(parent, "div", {{"class", container_class_}});
  html::Node* table = b->El(div, "table");
  for (const ListRecord& record : records) {
    html::Node* tr = b->El(table, "tr");
    html::Node* td = b->El(tr, "td", {{"class", record_class_}});
    EmitPrimary(b, td, record);
    for (size_t i = 1; i < num_fields_ && i < record.fields.size(); ++i) {
      b->El(td, "br");
      if (FieldPresent(record, i)) EmitField(b, td, record, i);
    }
    if (trailing_link_) {
      html::Node* second_td = b->El(tr, "td");
      b->Text(b->El(second_td, "a", {{"href", "#dir"}}), "Directions To Us");
    }
  }
}

void ListTemplate::RenderDivBlocks(
    PageBuilder* b, html::Node* parent,
    const std::vector<ListRecord>& records) const {
  static constexpr std::array<const char*, 4> kLabels = {
      "Address: ", "Location: ", "Phone: ", "Info: "};
  html::Node* container =
      b->El(parent, "div", {{"class", container_class_}});
  for (const ListRecord& record : records) {
    html::Node* block =
        b->El(container, "div", {{"class", record_class_}});
    html::Node* name_span = b->El(block, "span", {{"class", "name"}});
    EmitPrimary(b, name_span, record);
    for (size_t i = 1; i < num_fields_ && i < record.fields.size(); ++i) {
      html::Node* field_div = b->El(block, "div", {{"class", FieldClass(i)}});
      if (field_label_spans_) {
        b->Text(b->El(field_div, "span", {{"class", "lbl"}}),
                kLabels[(i - 1) % kLabels.size()]);
      }
      if (FieldPresent(record, i)) EmitField(b, field_div, record, i);
    }
    if (trailing_link_) {
      b->Text(b->El(block, "a", {{"href", "#more"}}), "Show Details");
    }
  }
}

void ListTemplate::RenderListItems(
    PageBuilder* b, html::Node* parent,
    const std::vector<ListRecord>& records) const {
  html::Node* ul = b->El(parent, "ul", {{"class", container_class_}});
  for (const ListRecord& record : records) {
    html::Node* li = b->El(ul, "li", {{"class", record_class_}});
    EmitPrimary(b, li, record);
    for (size_t i = 1; i < num_fields_ && i < record.fields.size(); ++i) {
      b->Text(li, bullet_);
      if (FieldPresent(record, i)) {
        html::Node* span = b->El(li, "span", {{"class", FieldClass(i)}});
        EmitField(b, span, record, i);
      }
    }
    if (trailing_link_) {
      b->Text(b->El(li, "a", {{"href", "#more"}}), "more");
    }
  }
}

void ListTemplate::RenderHeadingBlocks(
    PageBuilder* b, html::Node* parent,
    const std::vector<ListRecord>& records) const {
  html::Node* container =
      b->El(parent, "div", {{"class", container_class_}});
  for (const ListRecord& record : records) {
    html::Node* heading = b->El(container, "h3");
    EmitPrimary(b, heading, record);
    for (size_t i = 1; i < num_fields_ && i < record.fields.size(); ++i) {
      html::Node* p = b->El(container, "p", {{"class", FieldClass(i)}});
      if (FieldPresent(record, i)) EmitField(b, p, record, i);
    }
    if (trailing_link_) {
      b->Text(b->El(container, "a", {{"href", "#more"}}), "Read more");
    }
  }
}

}  // namespace ntw::sitegen
