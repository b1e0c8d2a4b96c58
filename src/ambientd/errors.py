"""The errors of ambientd and what each front end makes of them.

`httpapi._status_for` is a table from class to HTTP status, read along the
error's MRO (500 if no class is in it), and `cli.main` maps every
`AmbientError` to exit 2 with `ambientd: config error: <message>`:

    class                  HTTP status   CLI exit
    InvalidArgumentError   400           2
    PayloadTooLargeError   413           2
    RequestTimeoutError    408           2
    NotFoundError          404           2
    StaleReadingError      409           2
    CalibrationError       500           2
    ConfigError            500           2
"""


class AmbientError(Exception):
    """Base class for all ambientd errors."""


class InvalidArgumentError(AmbientError):
    """A value from outside the program breaks its rule: bad input."""


class NotFoundError(AmbientError):
    pass


class PayloadTooLargeError(InvalidArgumentError):
    """A message body over the size the HTTP layer accepts."""


class RequestTimeoutError(AmbientError):
    """A message body that stalls past the HTTP layer's read timeout."""


class StaleReadingError(AmbientError):
    """Reading timestamp is not newer than the last one seen for the sensor."""


class CalibrationError(AmbientError):
    pass


class ConfigError(AmbientError):
    pass
