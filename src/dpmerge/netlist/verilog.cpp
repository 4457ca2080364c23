#include "dpmerge/netlist/verilog.h"

#include <sstream>

namespace dpmerge::netlist {

namespace {

const char* drive_suffix(int drive) {
  switch (drive) {
    case 0:
      return "X1";
    case 1:
      return "X2";
    default:
      return "X4";
  }
}

/// Pin names per cell type, output pin last.
std::vector<const char*> pins(CellType t) {
  switch (cell_input_count(t)) {
    case 1:
      return {"A", "Y"};
    case 3:
      return {"A", "B", "S", "Y"};
    default:
      return {"A", "B", "Y"};
  }
}

}  // namespace

std::string to_verilog(const Netlist& n, const std::string& module_name) {
  std::ostringstream os;
  os << "module " << module_name << " (";
  bool first = true;
  for (const Bus& b : n.inputs()) {
    os << (first ? "" : ", ") << b.name;
    first = false;
  }
  for (const Bus& b : n.outputs()) {
    os << (first ? "" : ", ") << b.name;
    first = false;
  }
  os << ");\n";
  for (const Bus& b : n.inputs()) {
    os << "  input [" << b.signal.width() - 1 << ":0] " << b.name << ";\n";
  }
  for (const Bus& b : n.outputs()) {
    os << "  output [" << b.signal.width() - 1 << ":0] " << b.name << ";\n";
  }

  // Internal nets. Net 0/1 are the constants; primary-input bits alias the
  // port bits via assigns below.
  os << "  wire [" << n.net_count() - 1 << ":0] n;\n";
  os << "  assign n[0] = 1'b0;  // TIELO\n";
  os << "  assign n[1] = 1'b1;  // TIEHI\n";
  for (const Bus& b : n.inputs()) {
    for (int i = 0; i < b.signal.width(); ++i) {
      os << "  assign n[" << b.signal.bit(i).value << "] = " << b.name << "["
         << i << "];\n";
    }
  }

  for (const Gate& g : n.gates()) {
    const auto pn = pins(g.type);
    os << "  " << to_string(g.type) << drive_suffix(g.drive) << " g"
       << n.id_of(g).value << " (";
    for (std::size_t i = 0; i < g.inputs.size(); ++i) {
      os << "." << pn[i] << "(n[" << g.inputs[i].value << "]), ";
    }
    os << "." << pn.back() << "(n[" << g.output.value << "]));\n";
  }

  for (const Bus& b : n.outputs()) {
    for (int i = 0; i < b.signal.width(); ++i) {
      os << "  assign " << b.name << "[" << i << "] = n["
         << b.signal.bit(i).value << "];\n";
    }
  }
  os << "endmodule\n";
  return os.str();
}

}  // namespace dpmerge::netlist
