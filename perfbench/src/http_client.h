#pragma once

// A small blocking HTTP/1.1 client over one keep-alive loopback connection:
// the benchmark's own load generator, kept apart from the program's code so
// that a change to the program cannot change how load is offered.

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct HttpResponse {
  int status = 0;
  std::string body;  ///< de-chunked when the server streamed it
  bool chunked = false;
};

class HttpClient {
 public:
  /// Connects to 127.0.0.1:port. Throws std::runtime_error on failure.
  explicit HttpClient(std::uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one request and blocks for the whole response. `extra_headers`
  /// is inserted verbatim ("Name: value\r\n" lines). Throws on I/O errors.
  HttpResponse request(std::string_view method, std::string_view target,
                       std::string_view body = {}, std::string_view extra_headers = {});

 private:
  void send_all(std::string_view data);
  /// Reads more bytes into buffer_; throws on EOF or error.
  void fill();
  std::string read_line();
  void read_exact(std::size_t n, std::string& out);

  int fd_ = -1;
  std::string buffer_;
  std::size_t pos_ = 0;
  std::string request_;  ///< reused request buffer
};

}  // namespace perfbench
