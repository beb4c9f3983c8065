// Copyright 2026 The gpssn Authors.
//
// 2D point type used for road-network vertex coordinates, POI locations,
// and user home locations.

#ifndef GPSSN_GEOM_POINT_H_
#define GPSSN_GEOM_POINT_H_

#include <cmath>

namespace gpssn {

/// A point in the 2D data space of the spatial road network.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

inline double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Euclidean distance between two points.
inline double EuclideanDistance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

/// Linear interpolation: Lerp(a, b, 0) == a, Lerp(a, b, 1) == b.
inline Point Lerp(const Point& a, const Point& b, double t) {
  return Point{a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
}

}  // namespace gpssn

#endif  // GPSSN_GEOM_POINT_H_
