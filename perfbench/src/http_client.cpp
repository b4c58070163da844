#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace perfbench {

HttpClient::HttpClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect: " + std::string(std::strerror(err)));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{};
  tv.tv_sec = 30;  // a wedged server fails the run instead of hanging it
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

void HttpClient::send_all(std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

void HttpClient::fill() {
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return;
    }
    if (n == 0) throw std::runtime_error("connection closed by server");
    if (errno == EINTR) continue;
    throw std::runtime_error("recv: " + std::string(std::strerror(errno)));
  }
}

std::string HttpClient::read_line() {
  for (;;) {
    const std::size_t eol = buffer_.find("\r\n", pos_);
    if (eol != std::string::npos) {
      std::string line = buffer_.substr(pos_, eol - pos_);
      pos_ = eol + 2;
      return line;
    }
    fill();
  }
}

void HttpClient::read_exact(std::size_t n, std::string& out) {
  while (buffer_.size() - pos_ < n) fill();
  out.append(buffer_, pos_, n);
  pos_ += n;
}

HttpResponse HttpClient::request(std::string_view method, std::string_view target,
                                 std::string_view body, std::string_view extra_headers) {
  request_.clear();
  request_.append(method).append(" ").append(target).append(" HTTP/1.1\r\nHost: bench\r\n");
  request_.append(extra_headers);
  if (!body.empty() || method == "POST") {
    request_.append("Content-Length: ").append(std::to_string(body.size())).append("\r\n");
  }
  request_.append("\r\n").append(body);
  send_all(request_);

  HttpResponse response;
  const std::string status_line = read_line();
  if (status_line.size() < 12 || status_line.compare(0, 5, "HTTP/") != 0) {
    throw std::runtime_error("bad status line: " + status_line);
  }
  response.status = std::atoi(status_line.c_str() + 9);
  std::size_t content_length = 0;
  for (std::string line = read_line(); !line.empty(); line = read_line()) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    std::size_t v = colon + 1;
    while (v < line.size() && line[v] == ' ') ++v;
    if (name == "content-length") content_length = std::strtoull(line.c_str() + v, nullptr, 10);
    if (name == "transfer-encoding" && line.find("chunked", v) != std::string::npos) {
      response.chunked = true;
    }
  }
  if (!response.chunked) {
    read_exact(content_length, response.body);
  } else {
    for (;;) {
      const std::size_t size = std::strtoull(read_line().c_str(), nullptr, 16);
      if (size == 0) {
        while (!read_line().empty()) {
        }
        break;
      }
      read_exact(size, response.body);
      read_line();  // CRLF after the chunk data
    }
  }
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  return response;
}

}  // namespace perfbench
