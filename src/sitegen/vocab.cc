#include "sitegen/vocab.h"

#include <array>
#include <unordered_set>

#include "common/strings.h"

namespace ntw::sitegen {
namespace {

constexpr std::array<const char*, 40> kSurnames = {
    "PORTER",   "WOODLAND", "HELLER",   "STANLEY", "ALBANY",  "BENTON",
    "CARTER",   "DAWSON",   "ELLIS",    "FOSTER",  "GRAYSON", "HARMON",
    "IRVING",   "JENSEN",   "KIRBY",    "LAWSON",  "MERCER",  "NORWOOD",
    "OAKLEY",   "PRESTON",  "QUINCY",   "RAMSEY",  "SAWYER",  "TILDEN",
    "UPTON",    "VANCE",    "WHITMAN",  "YATES",   "ZIMMER",  "BARLOW",
    "CALDWELL", "DELANEY",  "EVERETT",  "FLYNN",   "GRIGGS",  "HOLDEN",
    "INGRAM",   "JARVIS",   "KEATING",  "LOMBARD"};

constexpr std::array<const char*, 24> kBusinessAdjectives = {
    "Lakeside",  "Summit",    "Golden",   "Premier",  "Classic",  "Royal",
    "Heritage",  "Liberty",   "Pioneer",  "Sterling", "Crescent", "Harbor",
    "Evergreen", "Brightway", "Cornerstone", "Redwood", "Metro", "Valley",
    "Coastal",   "Northgate", "Suncrest", "BestValue", "Prime",   "Apex"};

constexpr std::array<const char*, 16> kBusinessCategories = {
    "FURNITURE",  "Appliance",   "Electronics", "Hardware",
    "Interiors",  "Lighting",    "Flooring",    "Kitchens",
    "Bedding",    "Cabinetry",   "Decor",       "Outfitters",
    "Galleries",  "Showrooms",   "Supply",      "Design"};

constexpr std::array<const char*, 10> kBusinessSuffixes = {
    "",        "",        "",      " Inc",    " Co.",
    " Outlet", " Center", " Shop", " & Sons", " LLC"};

constexpr std::array<const char*, 20> kStreetNames = {
    "MAIN",    "OAK",      "MAPLE",   "MARKET",   "POST",
    "CHURCH",  "HIGHLAND", "RIVER",   "SPRING",   "WASHINGTON",
    "LINCOLN", "JACKSON",  "ELM",     "CEDAR",    "WALNUT",
    "HICKORY", "MONROE",   "FRANKLIN", "LAUREL",  "SYCAMORE"};

constexpr std::array<const char*, 8> kStreetTypes = {
    "ST.", "AVE.", "BLVD.", "RD.", "LANE", "DRIVE", "WAY", "PKWY"};

constexpr std::array<const char*, 24> kCities = {
    "NEW ALBANY",  "WOODLAND",   "SAN MATEO",  "SAN JOSE",   "SAN BRUNO",
    "SAN RAFAEL",  "FAIRVIEW",   "GREENVILLE", "BRISTOL",    "CLINTON",
    "SPRINGFIELD", "MADISON",    "GEORGETOWN", "SALEM",      "ASHLAND",
    "OXFORD",      "CLAYTON",    "DOVER",      "HUDSON",     "MILTON",
    "NEWPORT",     "RIVERSIDE",  "LEBANON",    "WINCHESTER"};

constexpr std::array<const char*, 16> kStates = {
    "MS", "CA", "TX", "NY", "OH", "GA", "TN", "NC",
    "VA", "IL", "MO", "KY", "AL", "FL", "PA", "WA"};

constexpr std::array<const char*, 28> kFillerWords = {
    "quality",  "service",  "trusted",   "local",    "family",  "owned",
    "since",    "offering", "finest",    "selection", "homes",  "customers",
    "delivery", "available", "authorized", "dealer",  "visit",  "store",
    "hours",    "weekly",   "savings",   "showroom", "products", "brands",
    "discount", "special",  "order",     "today"};

constexpr std::array<const char*, 20> kAlbumWords = {
    "Midnight", "Water",   "Silver",  "Dreams", "Echoes",  "Harvest",
    "Golden",   "Shadows", "Morning", "Rain",   "Highway", "Stars",
    "Winter",   "Garden",  "Fire",    "Blue",   "Horizon", "Tides",
    "Velvet",   "Thunder"};

constexpr std::array<const char*, 26> kTrackWords = {
    "Love",   "Night",  "Heart",   "Road",    "Summer", "Goodbye",
    "Dancing", "Lonely", "Sweet",  "Tomorrow", "River",  "Angel",
    "Broken", "Golden", "Silent",  "Wild",    "Forever", "Home",
    "Light",  "Crazy",  "Falling", "Dream",   "Sun",     "Moonlight",
    "Whisper", "Stormy"};

constexpr std::array<const char*, 16> kFirstNames = {
    "Johnny", "Maria",  "Frank",  "Elena", "Tony",  "Barbara",
    "Michel", "Danielle", "Ray",  "Nina",  "Louis", "Grace",
    "Victor", "Helen",  "Sam",    "Clara"};

constexpr std::array<const char*, 5> kPhoneBrands = {
    "Nokia", "Samsung", "Motorola", "SonyEricsson", "LG"};

constexpr std::array<const char*, 14> kPhoneSeries = {
    "Astra", "Vortex", "Pulse", "Slide", "Chrome", "Flare", "Quartz",
    "Nova",  "Echo",   "Titan", "Omni",  "Razor",  "Pixelo", "Mira"};

template <size_t N>
const char* Pick(Rng* rng, const std::array<const char*, N>& pool) {
  return pool[rng->NextBounded(N)];
}

std::string TitleWords(Rng* rng, int count,
                       const std::array<const char*, 26>& pool) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    if (i > 0) out += " ";
    out += pool[rng->NextBounded(pool.size())];
  }
  return out;
}

}  // namespace

std::string BusinessName(Rng* rng) {
  switch (rng->NextBounded(3)) {
    case 0:
      // "PORTER FURNITURE" style.
      return std::string(Pick(rng, kSurnames)) + " " +
             ToUpper(Pick(rng, kBusinessCategories));
    case 1:
      // "Lakeside Appliance Outlet" style.
      return std::string(Pick(rng, kBusinessAdjectives)) + " " +
             Pick(rng, kBusinessCategories) + Pick(rng, kBusinessSuffixes);
    default:
      // "CARTER & OAKLEY INTERIORS" style.
      return std::string(Pick(rng, kSurnames)) + " & " +
             Pick(rng, kSurnames) + " " +
             ToUpper(Pick(rng, kBusinessCategories));
  }
}

std::vector<std::string> BusinessNameUniverse(size_t n, uint64_t seed) {
  Rng rng(seed);
  // Reject names that contain (or are contained in) an existing name as a
  // contiguous word sequence: dictionary containment would otherwise make
  // "KIRBY FLOORING" match inside "KIRBY & KIRBY FLOORING Inc", conflating
  // distinct entities and inflating annotator noise beyond the intended
  // rates. Tracked via two hash sets so each candidate checks in O(words²).
  std::unordered_set<std::string> full_names;    // Accepted names.
  std::unordered_set<std::string> all_sublists;  // Their word sub-spans.
  std::vector<std::string> names;
  names.reserve(n);

  auto sublists_of = [](const std::string& lower) {
    std::vector<std::string> words = SplitWords(lower);
    std::vector<std::string> subs;
    for (size_t i = 0; i < words.size(); ++i) {
      std::string acc;
      for (size_t j = i; j < words.size(); ++j) {
        if (!acc.empty()) acc += " ";
        acc += words[j];
        subs.push_back(acc);
      }
    }
    return subs;
  };

  size_t attempts = 0;
  while (names.size() < n && attempts < n * 400) {
    ++attempts;
    std::string name = BusinessName(&rng);
    std::string lower = ToLower(name);
    std::vector<std::string> subs = sublists_of(lower);
    bool overlaps = all_sublists.count(lower) > 0;
    for (const std::string& sub : subs) {
      if (full_names.count(sub) > 0) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;
    full_names.insert(lower);
    for (std::string& sub : subs) all_sublists.insert(std::move(sub));
    names.push_back(std::move(name));
  }
  return names;
}

std::string StreetAddress(Rng* rng) {
  std::string number = std::to_string(rng->NextInRange(100, 9999));
  switch (rng->NextBounded(4)) {
    case 0:
      return number + " " + Pick(rng, kStreetNames) + " " +
             Pick(rng, kStreetTypes);
    case 1:
      return number + " HWY. " + std::to_string(rng->NextInRange(1, 99)) +
             (rng->NextBernoulli(0.5) ? " WEST" : " EAST");
    case 2:
      return "P.O. BOX " + std::to_string(rng->NextInRange(10, 9999));
    default:
      return number + " " + Pick(rng, kStreetNames) + " " +
             Pick(rng, kStreetTypes) + ", SUITE " +
             std::to_string(rng->NextInRange(1, 400));
  }
}

CityStateZip RandomCityStateZip(Rng* rng) {
  CityStateZip out;
  out.city = Pick(rng, kCities);
  out.state = Pick(rng, kStates);
  out.zip = std::to_string(rng->NextInRange(10000, 99999));
  return out;
}

std::string PhoneNumber(Rng* rng) {
  return std::to_string(rng->NextInRange(200, 989)) + "-" +
         std::to_string(rng->NextInRange(200, 989)) + "-" +
         std::to_string(rng->NextInRange(1000, 9999));
}

std::string FillerSentence(Rng* rng, int words, const std::string& embed) {
  std::string out;
  int embed_at = embed.empty() ? -1 : static_cast<int>(
                                          rng->NextBounded(
                                              static_cast<uint64_t>(words)));
  for (int i = 0; i < words; ++i) {
    if (!out.empty()) out += " ";
    if (i == embed_at) {
      out += embed;
    } else {
      out += Pick(rng, kFillerWords);
    }
  }
  return out;
}

std::string AlbumTitle(Rng* rng) {
  switch (rng->NextBounded(3)) {
    case 0:
      return std::string(kAlbumWords[rng->NextBounded(kAlbumWords.size())]) +
             " " + kAlbumWords[rng->NextBounded(kAlbumWords.size())];
    case 1:
      return std::string("The ") +
             kAlbumWords[rng->NextBounded(kAlbumWords.size())] + " Sessions";
    default:
      return std::string(kAlbumWords[rng->NextBounded(kAlbumWords.size())]) +
             " on the " + kAlbumWords[rng->NextBounded(kAlbumWords.size())];
  }
}

std::string TrackTitle(Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0:
      return TitleWords(rng, 2, kTrackWords);
    case 1:
      return TitleWords(rng, 3, kTrackWords);
    case 2:
      return std::string("The ") + TitleWords(rng, 2, kTrackWords);
    default:
      return TitleWords(rng, 1, kTrackWords) + " in the " +
             TitleWords(rng, 1, kTrackWords);
  }
}

std::string ArtistName(Rng* rng) {
  std::string surname = Pick(rng, kSurnames);
  // Mixed case for artists: "Johnny Mercer".
  std::string mixed;
  mixed += surname[0];
  for (size_t i = 1; i < surname.size(); ++i) {
    mixed += AsciiToLower(surname[i]);
  }
  return std::string(Pick(rng, kFirstNames)) + " " + mixed;
}

std::string TrackDuration(Rng* rng) {
  int seconds = static_cast<int>(rng->NextInRange(95, 420));
  std::string sec = std::to_string(seconds % 60);
  if (sec.size() == 1) sec = "0" + sec;
  return std::to_string(seconds / 60) + ":" + sec;
}

const std::vector<std::string>& PhoneBrands() {
  static const std::vector<std::string>* brands =
      new std::vector<std::string>(kPhoneBrands.begin(), kPhoneBrands.end());
  return *brands;
}

std::string PhoneModel(Rng* rng, const std::string& brand) {
  std::string series = Pick(rng, kPhoneSeries);
  switch (rng->NextBounded(3)) {
    case 0:
      return brand + " " + series + " " +
             std::to_string(rng->NextInRange(100, 9999));
    case 1:
      return brand + " " + series +
             std::string(1, static_cast<char>('A' + rng->NextBounded(26))) +
             std::to_string(rng->NextInRange(10, 99));
    default:
      return brand + " " + std::to_string(rng->NextInRange(1000, 9999)) +
             (rng->NextBernoulli(0.4) ? " Slim" : "");
  }
}

std::vector<std::string> PhoneModelCatalogue(size_t per_brand,
                                             uint64_t seed) {
  Rng rng(seed);
  std::unordered_set<std::string> seen;
  std::vector<std::string> models;
  for (const std::string& brand : PhoneBrands()) {
    size_t added = 0;
    while (added < per_brand) {
      std::string model = PhoneModel(&rng, brand);
      if (seen.insert(ToLower(model)).second) {
        models.push_back(std::move(model));
        ++added;
      }
    }
  }
  return models;
}

std::string Price(Rng* rng) {
  std::string price = "$";
  price.append(std::to_string(rng->NextInRange(19, 799))).append(".99");
  return price;
}

std::string ManufacturerBrand(Rng* rng) {
  static constexpr std::array<const char*, 14> kBrandStems = {
      "DuraRest", "ComfortLine", "TruCraft",  "HomeRight", "FlexForm",
      "SoftTouch", "EverCool",   "MaxLoft",   "SereneLux", "FirmaPed",
      "RestWell",  "CozyCore",   "PlushTek",  "SturdiBilt"};
  static constexpr std::array<const char*, 5> kBrandSuffixes = {
      " Collection", " Series", "", " Signature", " Select"};
  return std::string(kBrandStems[rng->NextBounded(kBrandStems.size())]) +
         kBrandSuffixes[rng->NextBounded(kBrandSuffixes.size())];
}

const std::vector<SeedAlbum>& SeedAlbums() {
  // Titles/artists follow the paper's Figure 9; the track lists are
  // synthetic but deterministic, so every generated discography site and
  // the annotator's seed database agree on them.
  static const std::vector<SeedAlbum>* albums = [] {
    const std::vector<std::pair<const char*, const char*>> kSeeds = {
        {"Bach for Breakfast", "Johann Sebastian Bach"},
        {"Abbey Road", "Beatles"},
        {"If It Rains on Tuesday", "Michelle Suesens"},
        {"Notre Dame Lullabies", "The O'Neill Brothers"},
        {"Love is the Answer", "Barbra Streisand"},
        {"Strangers In the Night", "Frank Sinatra"},
        {"I Left My Heart In San Francisco", "Tony Bennett"},
        {"Au Nom d'Une Femme", "Helcne Segara"},
        {"Yesterday & Forever", "Beatles"},
        {"Mi Plan", "Nelly Furtado"},
        {"She Walks In Beauty", "Danielle Woerner"},
    };
    auto* out = new std::vector<SeedAlbum>();
    Rng rng(0x5eedA1b0a1b0ULL);
    for (const auto& [title, artist] : kSeeds) {
      SeedAlbum album;
      album.title = title;
      album.artist = artist;
      int tracks = static_cast<int>(rng.NextInRange(8, 14));
      std::unordered_set<std::string> seen;
      while (static_cast<int>(album.tracks.size()) < tracks) {
        std::string t = TrackTitle(&rng);
        if (seen.insert(t).second) album.tracks.push_back(std::move(t));
      }
      out->push_back(std::move(album));
    }
    // One album's opening track shares the album title — the "title
    // track" noise source the paper calls out for the DISC annotator.
    (*out)[2].tracks[0] = (*out)[2].title;
    (*out)[9].tracks[0] = (*out)[9].title;
    return out;
  }();
  return *albums;
}

}  // namespace ntw::sitegen
