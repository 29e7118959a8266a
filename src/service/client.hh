/**
 * @file
 * Client side of the webslice-serve-v1 protocol.
 *
 * A thin, blocking connection wrapper used by tools/webslice-client,
 * the service tests, and perfbench's serve-mixed workload. All
 * failures are reported through return values + error strings (never
 * fatal): the callers decide whether a refused connection is a retry,
 * a test failure, or a dead daemon.
 */

#ifndef WEBSLICE_SERVICE_CLIENT_HH
#define WEBSLICE_SERVICE_CLIENT_HH

#include <functional>
#include <string>
#include <vector>

#include "service/protocol.hh"

namespace webslice {
namespace service {

class ServiceClient
{
  public:
    ServiceClient() = default;
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    ServiceClient(ServiceClient &&other) noexcept;
    ServiceClient &operator=(ServiceClient &&other) noexcept;

    /** Connect to the daemon's Unix socket. */
    bool connectUnix(const std::string &path, std::string &error);

    /** Connect to the daemon's loopback TCP listener. */
    bool connectTcp(const std::string &host, int port,
                    std::string &error);

    bool connected() const { return fd_ >= 0; }

    void close();

    /**
     * Send one request frame and read one response frame. Suits the
     * single-response ops (ping, stats, shutdown).
     */
    bool call(const Json &request, Json &response, std::string &error);

    /** Outcome summary of one batch round trip. */
    struct BatchOutcome
    {
        std::vector<QueryResult> results; ///< Indexed by query id.
        size_t ok = 0;
        size_t errors = 0;
        size_t rejected = 0;
        size_t timeouts = 0;
    };

    /**
     * Send a batch request for `prefix` and consume the streamed
     * result frames until batch_done. `on_result` (optional) observes
     * each raw streamed frame as it arrives — every result, then the
     * closing batch_done — before it is parsed into the outcome.
     */
    bool batch(const std::string &prefix,
               const std::vector<SliceQuery> &queries,
               BatchOutcome &outcome, std::string &error,
               const std::function<void(const Json &)> &on_result = {});

  private:
    int fd_ = -1;
};

} // namespace service
} // namespace webslice

#endif // WEBSLICE_SERVICE_CLIENT_HH
