// donkeytrace — umbrella public header.
//
// Reproduction of "Ten weeks in the life of an eDonkey server" (Aidouni,
// Latapy, Magnien): an eDonkey directory server, a synthetic client
// population, a UDP/IP/pcap capture substrate, the real-time
// decode-and-anonymise pipeline with the paper's purpose-built data
// structures, and the analysis toolkit that regenerates the paper's
// figures.  See DESIGN.md for the module map.
#pragma once

#include "analysis/campaign_stats.hpp"   // IWYU pragma: export
#include "analysis/distinct.hpp"         // IWYU pragma: export
#include "analysis/powerlaw.hpp"         // IWYU pragma: export
#include "analysis/report.hpp"           // IWYU pragma: export
#include "anon/anonymiser.hpp"           // IWYU pragma: export
#include "anon/client_table.hpp"         // IWYU pragma: export
#include "anon/fileid_store.hpp"         // IWYU pragma: export
#include "anon/rejected_schemes.hpp"     // IWYU pragma: export
#include "capture/engine.hpp"            // IWYU pragma: export
#include "common/strings.hpp"            // IWYU pragma: export
#include "core/campaign_runner.hpp"      // IWYU pragma: export
#include "core/parallel_pipeline.hpp"    // IWYU pragma: export
#include "core/pipeline.hpp"             // IWYU pragma: export
#include "decode/decoder.hpp"            // IWYU pragma: export
#include "hash/md4.hpp"                  // IWYU pragma: export
#include "hash/md5.hpp"                  // IWYU pragma: export
#include "net/pcap.hpp"                  // IWYU pragma: export
#include "proto/codec.hpp"               // IWYU pragma: export
#include "server/server.hpp"             // IWYU pragma: export
#include "sim/background.hpp"            // IWYU pragma: export
#include "sim/campaign.hpp"              // IWYU pragma: export
#include "workload/behavior.hpp"         // IWYU pragma: export
#include "workload/catalog.hpp"          // IWYU pragma: export
#include "workload/idstream.hpp"         // IWYU pragma: export
#include "xmlio/compress.hpp"            // IWYU pragma: export
#include "xmlio/schema.hpp"              // IWYU pragma: export
#include "xmlio/validate.hpp"            // IWYU pragma: export
