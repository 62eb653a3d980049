/**
 * @file json.hh
 * String escaping for the JSON emitters (Chrome traces, samples,
 * --stats-json). The simulator only ever writes JSON; the strict
 * validator the tests check its output with is tests/json_validate.hh.
 */

#ifndef FDIP_OBS_JSON_HH
#define FDIP_OBS_JSON_HH

#include <string>

namespace fdip
{

/** Escape @p s for embedding inside a double-quoted JSON string. */
std::string jsonEscape(const std::string &s);

} // namespace fdip

#endif // FDIP_OBS_JSON_HH
