#include "answers.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "storage/csv.hpp"

namespace perfbench {

std::string answer_bytes(
    const std::vector<gems::exec::StatementResult>& results) {
  if (results.empty() || !results.back().table) return {};
  std::ostringstream out;
  gems::storage::write_csv(*results.back().table, out);
  return out.str();
}

std::string digest_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

DigestMap load_digests(const std::string& path) {
  DigestMap m;
  std::ifstream in(path);
  std::string key;
  std::string digest;
  while (in >> key >> digest) m[key] = digest;
  return m;
}

bool save_digests(const std::string& path, const DigestMap& digests) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [key, digest] : digests) out << key << ' ' << digest << '\n';
  return out.good();
}

std::vector<std::string> digest_mismatches(const DigestMap& expected,
                                           const DigestMap& got) {
  std::vector<std::string> bad;
  for (const auto& [key, digest] : got) {
    auto it = expected.find(key);
    if (it == expected.end() || it->second != digest) bad.push_back(key);
  }
  return bad;
}

}  // namespace perfbench
