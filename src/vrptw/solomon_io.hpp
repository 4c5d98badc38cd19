#pragma once

// Reader/writer for the standard Solomon / Homberger instance text format:
//
//   <NAME>
//
//   VEHICLE
//   NUMBER     CAPACITY
//      25         200
//
//   CUSTOMER
//   CUST NO.  XCOORD.  YCOORD.  DEMAND  READY TIME  DUE DATE  SERVICE TIME
//       0       40       50       0         0        1236         0
//       1       45       68      10       912         967        90
//       ...
//
// Customer number 0 is the depot.  This is the format the Homberger
// extended Solomon benchmark (used in the paper's §IV) is distributed in.

#include <iosfwd>
#include <limits>
#include <string>

#include "vrptw/instance.hpp"

namespace tsmo {

/// Bounds read_solomon checks while it parses, before the instance and its
/// distance matrix exist.  The defaults admit every well-formed file.
struct SolomonLimits {
  int max_customers = std::numeric_limits<int>::max();
  int max_vehicles = std::numeric_limits<int>::max();
};

/// Parses an instance from a stream.  Throws std::runtime_error with a
/// line-oriented diagnostic on malformed input, and when the file declares
/// more customers or vehicles than `limits` allow; throws
/// std::invalid_argument when Instance::validate rejects what it read
/// (a non-finite number, ready after due, a demand above capacity, ...).
Instance read_solomon(std::istream& is, const SolomonLimits& limits = {});

/// Parses an instance from a file path.
Instance read_solomon_file(const std::string& path);

/// Writes an instance in the same format (coordinates and times with up to
/// two decimals, which round-trips the generator's output exactly enough
/// for distance matrices to agree to 1e-2).
void write_solomon(std::ostream& os, const Instance& inst);

void write_solomon_file(const std::string& path, const Instance& inst);

}  // namespace tsmo
