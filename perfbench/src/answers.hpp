// Answer bytes and the checked-in digests that pin them.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exec/executor.hpp"

namespace perfbench {

/// The bytes of a script's answer: the CSV rendering (with header) of its
/// last statement's table. Empty when the script produced no table.
std::string answer_bytes(const std::vector<gems::exec::StatementResult>& results);

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
std::string digest_hex(std::string_view bytes);

/// Digests keyed "<workload>/<query>/<binding>", stored one per line as
/// "<key> <digest>".
using DigestMap = std::map<std::string, std::string>;

DigestMap load_digests(const std::string& path);
bool save_digests(const std::string& path, const DigestMap& digests);

/// Keys of `got` whose digest differs from, or is missing in, `expected`.
std::vector<std::string> digest_mismatches(const DigestMap& expected,
                                           const DigestMap& got);

}  // namespace perfbench
