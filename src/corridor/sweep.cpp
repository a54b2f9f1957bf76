#include "corridor/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <utility>

#include "util/contracts.hpp"
#include "util/durable_io.hpp"

namespace railcorr::corridor {

namespace {

using util::ConfigError;
using util::SpecEntry;

std::vector<std::string> split_values(const std::string& csv,
                                      const SpecEntry& entry) {
  std::vector<std::string> values;
  std::string_view rest = csv;
  while (true) {
    const std::size_t comma = rest.find(',');
    std::string_view token =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (token.empty()) {
      throw ConfigError("sweep axis '" + entry.key + "' (line " +
                        std::to_string(entry.line) + "): empty value in '" +
                        csv + "'");
    }
    values.emplace_back(token);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return values;
}

/// Diagnostics label of shard `s`: the caller's file path when given
/// (so a failed merge names the file to inspect), else its position.
std::string shard_label(const std::vector<std::string>& names, std::size_t s) {
  return names.empty() ? "shard " + std::to_string(s)
                       : "shard '" + names[s] + "'";
}

}  // namespace

SweepPlan SweepPlan::from_spec(std::string_view text) {
  SweepPlan plan;
  bool base_seen = false;
  std::size_t cells = 1;
  for (const auto& entry : util::parse_spec(text)) {
    if (entry.key == "base") {
      if (base_seen) {
        throw ConfigError("sweep plan line " + std::to_string(entry.line) +
                          ": duplicate 'base'");
      }
      plan.base = entry.value;
      base_seen = true;
    } else if (entry.key.starts_with("set ")) {
      SpecEntry fixed = entry;
      fixed.key = entry.key.substr(4);
      while (!fixed.key.empty() && fixed.key.front() == ' ') {
        fixed.key.erase(fixed.key.begin());
      }
      if (fixed.key.empty()) {
        throw ConfigError("sweep plan line " + std::to_string(entry.line) +
                          ": 'set' without a key path");
      }
      plan.fixed.push_back(std::move(fixed));
    } else if (entry.key.starts_with("axis ")) {
      SweepAxis axis;
      axis.key = entry.key.substr(5);
      while (!axis.key.empty() && axis.key.front() == ' ') {
        axis.key.erase(axis.key.begin());
      }
      if (axis.key.empty()) {
        throw ConfigError("sweep plan line " + std::to_string(entry.line) +
                          ": 'axis' without a key path");
      }
      for (const auto& existing : plan.axes) {
        if (existing.key == axis.key) {
          throw ConfigError("sweep plan line " + std::to_string(entry.line) +
                            ": duplicate axis '" + axis.key + "'");
        }
      }
      axis.values = split_values(entry.value, entry);
      if (axis.values.size() >
          std::numeric_limits<std::size_t>::max() / cells) {
        throw ConfigError("sweep plan line " + std::to_string(entry.line) +
                          ": axis '" + axis.key +
                          "' takes the grid past 2^64 - 1 cells");
      }
      cells *= axis.values.size();
      plan.axes.push_back(std::move(axis));
    } else {
      throw ConfigError("sweep plan line " + std::to_string(entry.line) +
                        ": expected 'base', 'set <key>', or 'axis <key>', "
                        "got '" +
                        entry.key + "'");
    }
  }
  return plan;
}

std::size_t SweepPlan::size() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<std::string> SweepPlan::axis_values_at(std::size_t index) const {
  RAILCORR_EXPECTS(index < size());
  // Row-major decomposition: the last axis varies fastest.
  std::size_t remainder = index;
  std::vector<std::size_t> digits(axes.size(), 0);
  for (std::size_t a = axes.size(); a-- > 0;) {
    const std::size_t extent = axes[a].values.size();
    digits[a] = remainder % extent;
    remainder /= extent;
  }
  std::vector<std::string> values;
  values.reserve(axes.size());
  for (std::size_t a = 0; a < axes.size(); ++a) {
    values.push_back(axes[a].values[digits[a]]);
  }
  return values;
}

std::vector<SpecEntry> SweepPlan::overrides_at(std::size_t index) const {
  std::vector<SpecEntry> overrides = fixed;
  const auto values = axis_values_at(index);
  for (std::size_t a = 0; a < axes.size(); ++a) {
    overrides.push_back(SpecEntry{axes[a].key, values[a], 0});
  }
  return overrides;
}

std::string SweepPlan::canonical_spec() const {
  std::string out = "base = " + base + "\n";
  for (const auto& entry : fixed) {
    out += "set " + entry.key + " = " + entry.value + "\n";
  }
  for (const auto& axis : axes) {
    out += "axis " + axis.key + " = ";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) out += ", ";
      out += axis.values[i];
    }
    out += "\n";
  }
  return out;
}

std::uint64_t SweepPlan::fingerprint() const {
  return util::fnv1a64(canonical_spec());
}

ShardSpec ShardSpec::parse(std::string_view text) {
  const std::size_t slash = text.find('/');
  auto parse_part = [&](std::string_view part, const char* what) {
    std::size_t value = 0;
    if (part.empty()) {
      throw ConfigError("shard spec '" + std::string(text) + "': missing " +
                        what);
    }
    const char* const end = part.data() + part.size();
    const auto parsed = std::from_chars(part.data(), end, value);
    if (parsed.ec == std::errc::result_out_of_range) {
      throw ConfigError("shard spec '" + std::string(text) + "': " + what +
                        " out of range");
    }
    if (parsed.ec != std::errc{} || parsed.ptr != end) {
      throw ConfigError("shard spec '" + std::string(text) +
                        "': expected '<i>/<N>' with decimal numbers");
    }
    return value;
  };
  if (slash == std::string_view::npos) {
    throw ConfigError("shard spec '" + std::string(text) +
                      "': expected '<i>/<N>'");
  }
  ShardSpec spec;
  spec.index = parse_part(text.substr(0, slash), "shard index");
  spec.count = parse_part(text.substr(slash + 1), "shard count");
  if (spec.count == 0 || spec.index >= spec.count) {
    throw ConfigError("shard spec '" + std::string(text) +
                      "': need 0 <= i < N");
  }
  return spec;
}

std::vector<std::size_t> ShardSpec::indices(std::size_t grid_size) const {
  std::vector<std::size_t> out;
  for (std::size_t i = index; i < grid_size; i += count) out.push_back(i);
  return out;
}

std::optional<std::size_t> banner_grid(std::string_view banner) {
  const std::size_t at = banner.find(" grid=");
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t value = 0;
  const char* const end = banner.data() + banner.size();
  if (std::from_chars(banner.data() + at + 6, end, value).ec != std::errc{}) {
    return std::nullopt;  // No digits, or a value that overflows.
  }
  return value;
}

std::string shard_banner(const SweepPlan& plan) {
  return "# railcorr-sweep-v1 fingerprint=" +
         util::hex16(plan.fingerprint()) +
         " grid=" + std::to_string(plan.size());
}

std::string shard_header(const SweepPlan& plan,
                         const std::vector<std::string>& metric_columns) {
  std::string header = "index";
  for (const auto& axis : plan.axes) header += "," + axis.key;
  for (const auto& column : metric_columns) header += "," + column;
  return header;
}

std::optional<ShardRows> read_shard(std::string_view document,
                                    std::string& error) {
  // Integrity first: a document whose `@railcorr-crc` trailer does not
  // match its bytes was truncated or corrupted on disk — an I/O failure
  // of that file, which its reader recomputes or refuses, never merges.
  const auto trailer = util::check_integrity_trailer(document);
  if (trailer.status == util::TrailerStatus::kCorrupt) {
    error = "integrity trailer mismatch (truncated or corrupted)";
    return std::nullopt;
  }
  ShardRows shard;
  std::string_view rest = trailer.body;
  std::size_t line_no = 0;
  while (!rest.empty()) {
    ++line_no;
    const std::size_t eol = rest.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;

    if (line_no == 1) {
      if (!line.starts_with("# railcorr-sweep-v1 ")) {
        error = "missing '# railcorr-sweep-v1' banner";
        return std::nullopt;
      }
      shard.banner = line;
      continue;
    }
    if (shard.header.empty()) {
      shard.header = line;
      continue;
    }
    const std::size_t comma = line.find(',');
    std::size_t index = 0;
    if (comma == std::string_view::npos ||
        !util::parse_whole(line.substr(0, comma), index)) {
      error = "line " + std::to_string(line_no) +
              ": expected '<index>,...', got '" + std::string(line) + "'";
      return std::nullopt;
    }
    shard.rows.emplace_back(index, line);
  }
  if (shard.banner.empty() || shard.header.empty()) {
    error = "truncated document (banner or header missing)";
    return std::nullopt;
  }
  return shard;
}

MergeResult merge_shards(const std::vector<std::string>& shard_documents,
                         const std::vector<std::string>& shard_names) {
  RAILCORR_EXPECTS(shard_names.empty() ||
                   shard_names.size() == shard_documents.size());
  std::vector<ShardRows> shards;
  shards.reserve(shard_documents.size());
  for (std::size_t s = 0; s < shard_documents.size(); ++s) {
    std::string error;
    auto shard = read_shard(shard_documents[s], error);
    if (!shard.has_value()) {
      // A row's defect reads "<label> line <n>: ...", the document's
      // "<label>: ...".
      MergeResult result;
      result.errors.push_back(shard_label(shard_names, s) +
                              (error.starts_with("line ") ? " " : ": ") +
                              error);
      return result;
    }
    shards.push_back(std::move(*shard));
  }
  return merge_rows(shards, shard_names);
}

MergeResult merge_rows(const std::vector<ShardRows>& shards,
                       const std::vector<std::string>& shard_names) {
  MergeResult result;
  if (shards.empty()) {
    result.errors.emplace_back("no shard documents to merge");
    return result;
  }
  RAILCORR_EXPECTS(shard_names.empty() ||
                   shard_names.size() == shards.size());
  const auto label = [&](std::size_t s) {
    return shard_label(shard_names, s);
  };
  std::size_t total_rows = 0;
  for (const auto& shard : shards) total_rows += shard.rows.size();

  for (std::size_t s = 1; s < shards.size(); ++s) {
    if (shards[s].banner != shards[0].banner) {
      result.errors.push_back(label(s) +
                              ": plan fingerprint/grid differs from " +
                              label(0) + " ('" + std::string(shards[s].banner) +
                              "' vs '" + std::string(shards[0].banner) + "')");
    }
    if (shards[s].header != shards[0].header) {
      result.errors.push_back(label(s) + ": column header differs from " +
                              label(0));
    }
  }
  if (!result.errors.empty()) return result;

  const auto grid = banner_grid(shards[0].banner);
  if (!grid.has_value()) {
    result.errors.emplace_back("banner lacks a parsable grid=<N> token");
    return result;
  }

  // One slot per grid cell. The banner is outside input: one claiming
  // more cells than the shards hold rows has a coverage gap by
  // construction, and its slots are then the sorted distinct row
  // indices, so memory and time follow the rows given, never the claim.
  const bool dense = *grid <= total_rows;
  std::vector<std::size_t> present;
  if (!dense) {
    for (const auto& shard : shards) {
      for (const auto& [index, row] : shard.rows) {
        if (index < *grid) present.push_back(index);
      }
    }
    std::sort(present.begin(), present.end());
    present.erase(std::unique(present.begin(), present.end()), present.end());
  }
  const auto slot_of = [&](std::size_t index) -> std::optional<std::size_t> {
    if (dense) return index;
    const auto it = std::lower_bound(present.begin(), present.end(), index);
    if (it == present.end() || *it != index) return std::nullopt;
    return static_cast<std::size_t>(it - present.begin());
  };

  // Determinism contract: a cell evaluated by several shards must have
  // produced byte-identical rows. Each kept row remembers which shard
  // supplied it, so a violation names both sides of the disagreement.
  // Rows are never empty (they start with their index), so an empty
  // view marks a cell no shard supplied.
  struct CellRow {
    std::string_view row;
    std::size_t source = 0;
  };
  std::vector<CellRow> cells(dense ? *grid : present.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (const auto& [index, row] : shards[s].rows) {
      if (index >= *grid) {
        result.errors.push_back(label(s) + ": row index " +
                                std::to_string(index) + " outside grid of " +
                                std::to_string(*grid));
        continue;
      }
      CellRow& cell = cells[*slot_of(index)];
      if (cell.row.empty()) {
        cell = CellRow{row, s};
      } else if (cell.row != row) {
        result.contract_violation = true;
        result.errors.push_back(
            "determinism violation at grid cell " + std::to_string(index) +
            ": " + label(s) + " produced '" + std::string(row) + "' but " +
            label(cell.source) + " produced '" + std::string(cell.row) + "'");
      }
    }
  }
  const std::size_t filled = static_cast<std::size_t>(
      std::count_if(cells.begin(), cells.end(),
                    [](const CellRow& cell) { return !cell.row.empty(); }));
  const std::size_t missing = *grid - filled;
  if (missing > 0) {
    result.contract_violation = true;
    // The first few gaps by index, then one summary line naming every
    // searched input, so a coverage gap is traceable to the shard set
    // actually merged. Each step either lists a gap or passes a filled
    // cell, so the walk is bounded by the rows given.
    constexpr std::size_t kListedMissing = 16;
    std::size_t listed = 0;
    for (std::size_t i = 0; listed < std::min(missing, kListedMissing); ++i) {
      const auto slot = slot_of(i);
      if (slot.has_value() && !cells[*slot].row.empty()) continue;
      result.errors.push_back("grid cell " + std::to_string(i) +
                              " missing from every shard");
      ++listed;
    }
    std::string searched = "coverage gap: " + std::to_string(missing) +
                           " cell(s) missing after searching ";
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (s > 0) searched += ", ";
      searched += label(s);
    }
    result.errors.push_back(std::move(searched));
  }
  if (!result.errors.empty()) return result;

  result.ok = true;
  std::size_t bytes = shards[0].banner.size() + shards[0].header.size() + 2;
  for (const CellRow& cell : cells) bytes += cell.row.size() + 1;
  // Room for the trailer a caller writing the document appends in place.
  result.merged.reserve(bytes + util::kIntegrityTrailerBytes);
  result.merged += shards[0].banner;
  result.merged += '\n';
  result.merged += shards[0].header;
  result.merged += '\n';
  for (const CellRow& cell : cells) {
    result.merged += cell.row;
    result.merged += '\n';
  }
  return result;
}

}  // namespace railcorr::corridor
