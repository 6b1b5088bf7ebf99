// Text (de)serialization of fitted ModelSets.
//
// A saved model makes the generator a standalone tool: fit once on a
// sample trace, then synthesize arbitrarily many traces later without the
// input data. Empirical sojourn CDFs are stored as quantile grids (256
// knots by default), which keeps files compact while preserving the
// inverse-transform sampling behaviour.
#pragma once

#include <iosfwd>
#include <string>

#include "model/semi_markov.h"

namespace cpg::io {

struct ModelIoOptions {
  // Knots per empirical distribution; larger = higher CDF fidelity.
  std::size_t quantile_knots = 256;
};

void save_model(const model::ModelSet& set, std::ostream& os,
                const ModelIoOptions& options = {});
void save_model(const model::ModelSet& set, const std::string& path,
                const ModelIoOptions& options = {});

// Throws std::runtime_error on malformed input, as
// "load_model: <what> (section '<s>', near byte N)". Every numeral must be
// exactly one number as std::from_chars reads it, and nothing but
// whitespace may follow the 'end' trailer. The path overload maps the file
// (or reads it when it cannot be mapped, e.g. a pipe) and names the path
// and errno when it cannot be read; the stream overload reads the stream
// to its end first.
model::ModelSet load_model(std::istream& is);
model::ModelSet load_model(const std::string& path);

}  // namespace cpg::io
