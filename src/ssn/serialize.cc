#include "ssn/serialize.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace gpssn {

namespace {
constexpr char kMagic[] = "gpssn-v1";
// Bound on a POI's keyword count and on the topic count, so a hostile
// header cannot make the loader allocate wildly.
constexpr size_t kMaxListLength = size_t{1} << 20;
}  // namespace

Status WriteSsnBody(std::ostream& out, const SpatialSocialNetwork& ssn) {
  out.precision(17);

  const RoadNetwork& road = ssn.road();
  const SocialNetwork& social = ssn.social();

  out << "road " << road.num_vertices() << " " << road.num_edges() << "\n";
  for (VertexId v = 0; v < road.num_vertices(); ++v) {
    const Point& p = road.vertex_point(v);
    out << p.x << " " << p.y << "\n";
  }
  for (EdgeId e = 0; e < road.num_edges(); ++e) {
    out << road.edge_u(e) << " " << road.edge_v(e) << " " << road.edge_weight(e)
        << "\n";
  }

  out << "pois " << ssn.num_pois() << "\n";
  for (const Poi& poi : ssn.pois()) {
    out << poi.position.edge << " " << poi.position.t << " "
        << poi.keywords.size();
    for (KeywordId kw : poi.keywords) out << " " << kw;
    out << "\n";
  }

  out << "social " << social.num_users() << " " << social.num_friendships()
      << " " << social.num_topics() << "\n";
  for (UserId u = 0; u < social.num_users(); ++u) {
    const auto w = social.Interests(u);
    for (size_t f = 0; f < w.size(); ++f) {
      out << (f == 0 ? "" : " ") << w[f];
    }
    out << "\n";
  }
  for (UserId u = 0; u < social.num_users(); ++u) {
    for (UserId v : social.Friends(u)) {
      if (u < v) out << u << " " << v << "\n";
    }
  }

  out << "homes\n";
  for (UserId u = 0; u < social.num_users(); ++u) {
    const EdgePosition& home = ssn.user_home(u);
    out << home.edge << " " << home.t << "\n";
  }

  out.flush();
  if (!out) return Status::IoError("write failed");
  return Status::OK();
}

Status SaveSsn(const SpatialSocialNetwork& ssn, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << kMagic << "\n";
  return WriteSsnBody(out, ssn);
}

Result<SpatialSocialNetwork> ReadSsnBody(std::istream& in) {
  std::string section;
  int num_vertices = 0, num_edges = 0;
  if (!(in >> section >> num_vertices >> num_edges) || section != "road") {
    return Status::IoError("malformed road header");
  }
  if (num_vertices < 0 || num_edges < 0) {
    return Status::IoError("negative road sizes");
  }
  RoadNetworkBuilder road_builder;
  for (int v = 0; v < num_vertices; ++v) {
    Point p;
    if (!(in >> p.x >> p.y)) return Status::IoError("truncated vertex list");
    road_builder.AddVertex(p);
  }
  for (int e = 0; e < num_edges; ++e) {
    VertexId a, b;
    double w;
    if (!(in >> a >> b >> w)) return Status::IoError("truncated edge list");
    // Negated so that NaN fails too. RoadNetworkBuilder::AddEdge would
    // give a negative weight the edge's Euclidean length.
    if (!(w >= 0.0)) return Status::IoError("negative edge weight");
    auto added = road_builder.AddEdge(a, b, w);
    if (!added.ok()) return added.status();
  }
  RoadNetwork road = road_builder.Build();

  int num_pois = 0;
  if (!(in >> section >> num_pois) || section != "pois" || num_pois < 0) {
    return Status::IoError("malformed pois header");
  }
  std::vector<Poi> pois;  // Not reserved: num_pois is unchecked.
  for (int i = 0; i < num_pois; ++i) {
    Poi poi;
    poi.id = static_cast<PoiId>(i);
    size_t kw_count = 0;
    if (!(in >> poi.position.edge >> poi.position.t >> kw_count)) {
      return Status::IoError("truncated POI list");
    }
    if (kw_count > kMaxListLength) {
      return Status::IoError("implausible POI keyword count");
    }
    poi.keywords.resize(kw_count);
    for (auto& kw : poi.keywords) {
      if (!(in >> kw)) return Status::IoError("truncated POI keywords");
    }
    if (poi.position.edge < 0 || poi.position.edge >= road.num_edges()) {
      return Status::IoError("POI on invalid edge");
    }
    poi.location = road.PositionPoint(poi.position);
    pois.push_back(std::move(poi));
  }

  int num_users = 0, num_friendships = 0, num_topics = 0;
  if (!(in >> section >> num_users >> num_friendships >> num_topics) ||
      section != "social") {
    return Status::IoError("malformed social header");
  }
  if (num_users < 0 || num_friendships < 0 || num_topics < 1 ||
      static_cast<size_t>(num_topics) > kMaxListLength) {
    return Status::IoError("bad social sizes");
  }
  SocialNetworkBuilder social_builder(num_topics);
  std::vector<double> w(num_topics);
  for (int u = 0; u < num_users; ++u) {
    for (double& p : w) {
      if (!(in >> p)) return Status::IoError("truncated interest vectors");
    }
    auto added = social_builder.AddUser(w);
    if (!added.ok()) return added.status();
  }
  for (int f = 0; f < num_friendships; ++f) {
    UserId a, b;
    if (!(in >> a >> b)) return Status::IoError("truncated friendships");
    GPSSN_RETURN_NOT_OK(social_builder.AddFriendship(a, b));
  }
  SocialNetwork social = social_builder.Build();

  if (!(in >> section) || section != "homes") {
    return Status::IoError("malformed homes header");
  }
  std::vector<EdgePosition> homes(num_users);
  for (auto& home : homes) {
    if (!(in >> home.edge >> home.t)) return Status::IoError("truncated homes");
  }

  SpatialSocialNetwork ssn(std::move(road), std::move(social),
                           std::move(homes), std::move(pois));
  GPSSN_RETURN_NOT_OK(ssn.Validate());
  return ssn;
}

Result<SpatialSocialNetwork> LoadSsn(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string magic;
  if (!(in >> magic) || magic != kMagic) {
    return Status::IoError("bad magic in " + path);
  }
  return ReadSsnBody(in);
}

}  // namespace gpssn
