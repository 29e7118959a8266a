/**
 * @file
 * The resident slicing daemon's accept loop and request dispatch.
 *
 * Listens on a Unix-domain socket (and optionally loopback TCP), one
 * handler thread per connection, each speaking the webslice-serve-v1
 * frame protocol. All heavy work flows through the shared Scheduler
 * and SessionCache, so concurrent connections share sessions and the
 * bounded queue. Shutdown is graceful: requestShutdown() (safe to call
 * from a signal handler via notifyShutdownFd) stops the accept loop,
 * half-closes active connections so their reads end after the in-
 * flight frames, drains the scheduler, and removes the socket file.
 */

#ifndef WEBSLICE_SERVICE_SERVER_HH
#define WEBSLICE_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>

#include "service/scheduler.hh"
#include "service/session_cache.hh"

namespace webslice {
namespace service {

struct ServerOptions
{
    /** Path of the Unix-domain listening socket (required). */
    std::string socketPath;

    /** Also listen on 127.0.0.1:<tcpPort>; -1 disables TCP. */
    int tcpPort = -1;

    /** Concurrent query workers in the scheduler. */
    int workers = 2;

    /** Bounded queue depth before submissions are rejected. */
    size_t maxQueue = 64;

    /** Session-cache byte budget. */
    uint64_t cacheBytes = 2ull << 30;

    /** Forward-pass threads when a session is built (0 = all cores). */
    int forwardJobs = 0;

    /** Fleet identity stamped on every result and status frame; empty
     *  outside fleet deployments (the fields are then omitted). */
    std::string shardId;

    /** Shard generation, bumped by the supervisor on each restart so a
     *  fleet client can tell a restarted shard from the one it lost. */
    uint64_t shardEpoch = 1;
};

class Server
{
  public:
    /** Binds the listeners; fatal() when the socket cannot be bound. */
    explicit Server(const ServerOptions &options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Accept and serve until shutdown is requested; returns after the
     * drain completes. Call from the main thread (or a dedicated one).
     */
    void run();

    /** Ask run() to stop; usable from any thread. */
    void requestShutdown();

    /**
     * Enter draining mode without stopping: ping/stats answer with
     * "draining": true and new batch requests are refused with an
     * error frame, so a fleet client re-routes to a replica while the
     * supervisor waits for in-flight work to finish. Also flipped by
     * the "drain" protocol op.
     */
    void beginDrain() { draining_.store(true); }

    bool draining() const { return draining_.load(); }

    /**
     * Fault-injection hook for failover tests: hard-close every live
     * connection (SHUT_RDWR), as a crashed shard would. The listener
     * keeps accepting; pair with beginDrain()/requestShutdown() to
     * simulate a full shard death in-process.
     */
    void abortConnections();

    /**
     * File descriptor a signal handler can write one byte to in order
     * to trigger shutdown (the self-pipe trick; write() is
     * async-signal-safe where requestShutdown() is not).
     */
    int notifyShutdownFd() const { return shutdownPipe_[1]; }

    /** TCP port actually bound (for tcpPort = 0 ephemeral binds). */
    int boundTcpPort() const { return boundTcpPort_; }

    SessionCache &cache() { return cache_; }
    Scheduler &scheduler() { return scheduler_; }

  private:
    void handleConnection(int fd);

    /** Serve one "batch" request; streams result frames on `fd`. */
    void handleBatch(int fd, const Json &request);

    Json statsResponse() const;

    /** Add the shard/epoch/draining members status frames carry. */
    void stampIdentity(Json &body) const;

    bool sendJson(int fd, const Json &body);

    ServerOptions options_;
    SessionCache cache_;
    Scheduler scheduler_;

    int unixFd_ = -1;
    int tcpFd_ = -1;
    int boundTcpPort_ = -1;
    int shutdownPipe_[2] = {-1, -1};
    std::atomic<bool> shuttingDown_{false};
    std::atomic<bool> draining_{false};

    std::mutex connMutex_;
    std::condition_variable connsDone_;
    std::set<int> connFds_;
    size_t activeConns_ = 0;
};

} // namespace service
} // namespace webslice

#endif // WEBSLICE_SERVICE_SERVER_HH
