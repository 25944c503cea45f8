#ifndef TRAJPATTERN_IO_ASCII_ART_H_
#define TRAJPATTERN_IO_ASCII_ART_H_

#include <string>

#include "geometry/grid.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// Renders the density of snapshot means over `grid` as an ASCII heatmap
/// (one character per cell, rows top-down, ramp " .:-=+*#%@" scaled to
/// the densest cell).  Handy for eyeballing generated workloads in the
/// examples and for debugging mining inputs.
std::string RenderDensity(const TrajectoryDataset& data, const Grid& grid);

}  // namespace trajpattern

#endif  // TRAJPATTERN_IO_ASCII_ART_H_
