// NetFlow CSV persistence (the intermediate artifact between the Bro stage
// and the graph-mapping stage of the Fig. 1 pipeline).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "flow/netflow.hpp"

namespace csb {

void save_netflow_csv(const std::vector<NetflowRecord>& records,
                      std::ostream& out);
/// Malformed input throws CsbError("bad netflow CSV <name>: line <n>:
/// <reason>"); every integer field is range-checked against its type.
std::vector<NetflowRecord> load_netflow_csv(std::istream& in,
                                            const std::string& name = "stream");

void save_netflow_csv_file(const std::vector<NetflowRecord>& records,
                           const std::string& path);
std::vector<NetflowRecord> load_netflow_csv_file(const std::string& path);

}  // namespace csb
