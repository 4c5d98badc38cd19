#include "vrptw/solomon_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace tsmo {

namespace {

/// True when every whitespace-separated token in the line parses as a
/// number (the data rows; headers contain words).
bool numeric_row(const std::string& line, std::vector<double>& out) {
  out.clear();
  std::istringstream iss(line);
  std::string tok;
  while (iss >> tok) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(tok, &used);
    } catch (const std::exception&) {
      return false;
    }
    if (used != tok.size()) return false;
    out.push_back(v);
  }
  return !out.empty();
}

}  // namespace

Instance read_solomon(std::istream& is, const SolomonLimits& limits) {
  std::string name;
  std::string line;
  std::vector<double> nums;

  // First non-empty line is the instance name.
  while (std::getline(is, line)) {
    std::istringstream iss(line);
    std::string tok;
    if (iss >> tok) {
      name = tok;
      break;
    }
  }
  if (name.empty()) {
    throw std::runtime_error("read_solomon: missing instance name");
  }

  // First 2-number row is "<vehicles> <capacity>".
  bool have_vehicle_row = false;
  int max_vehicles = 0;
  double capacity = -1.0;
  while (std::getline(is, line)) {
    if (numeric_row(line, nums) && nums.size() == 2) {
      // Range-check before converting: a double outside int's range does
      // not convert.
      const double v = nums[0];
      if (!(v >= 1.0 && v <= limits.max_vehicles) || v != std::floor(v)) {
        throw std::runtime_error(
            "read_solomon: VEHICLE number must be an integer in [1, " +
            std::to_string(limits.max_vehicles) + "], got line: " + line);
      }
      max_vehicles = static_cast<int>(v);
      capacity = nums[1];
      have_vehicle_row = true;
      break;
    }
  }
  if (!have_vehicle_row) {
    throw std::runtime_error("read_solomon: missing VEHICLE row");
  }

  // Remaining 7-number rows are customers (first must be the depot, id 0).
  std::vector<Site> sites;
  while (std::getline(is, line)) {
    if (!numeric_row(line, nums)) continue;
    if (nums.size() != 7) {
      throw std::runtime_error(
          "read_solomon: customer row must have 7 fields, got line: " + line);
    }
    if (nums[0] != static_cast<double>(sites.size())) {
      throw std::runtime_error(
          "read_solomon: customer ids must be consecutive from 0");
    }
    // sites[0] is the depot, so this row would be customer sites.size().
    if (sites.size() > static_cast<std::size_t>(limits.max_customers)) {
      throw std::runtime_error("read_solomon: more than " +
                               std::to_string(limits.max_customers) +
                               " customers");
    }
    sites.push_back(Site{nums[1], nums[2], nums[3], nums[4], nums[5],
                         nums[6]});
  }
  if (sites.empty()) {
    throw std::runtime_error("read_solomon: no customer rows");
  }
  // The file's numbers reach the engines only once validated, as the
  // generator validates what it builds itself.
  Instance inst(name, std::move(sites), max_vehicles, capacity);
  inst.validate();
  return inst;
}

Instance read_solomon_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error("read_solomon_file: cannot open " + path);
  }
  return read_solomon(f);
}

void write_solomon(std::ostream& os, const Instance& inst) {
  os << inst.name() << "\n\nVEHICLE\nNUMBER     CAPACITY\n";
  os << "  " << inst.max_vehicles() << "        " << inst.capacity()
     << "\n\nCUSTOMER\n"
     << "CUST NO.  XCOORD.   YCOORD.   DEMAND    READY TIME  DUE DATE"
     << "   SERVICE TIME\n\n";
  char buf[200];
  for (int i = 0; i < inst.num_sites(); ++i) {
    const Site& s = inst.site(i);
    std::snprintf(buf, sizeof(buf),
                  "%5d %10.2f %10.2f %10.2f %12.2f %10.2f %10.2f\n", i, s.x,
                  s.y, s.demand, s.ready, s.due, s.service);
    os << buf;
  }
}

void write_solomon_file(const std::string& path, const Instance& inst) {
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("write_solomon_file: cannot open " + path);
  }
  write_solomon(f, inst);
}

}  // namespace tsmo
